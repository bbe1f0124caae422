package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"bdps/internal/filter"
)

// Wire format (big endian), used by the live TCP runtime:
//
//	frame   := magic(2) version(1) type(1) bodyLen(4) body
//	message := id(8) publisher(4) ingress(4) published(8) allowed(8)
//	           sizeKB(8) nattrs(2) attr* payloadLen(4) payload
//	attr    := nameLen(1) name kind(1) ( num(8) | strLen(2) str )
//	sub     := id(4) edge(4) deadline(8) price(8) filterLen(2) filter
//
// filter is the binary form of the subscription's filter
// (filter.AppendBinary: the expression tree, node by node); version 1
// carried its source text instead. Floats are IEEE-754 bit patterns.
// Limits below bound every length field so a corrupt or hostile frame
// cannot trigger a huge allocation.

// Frame type identifiers.
const (
	FrameMessage     = 0x01 // publisher → ingress broker only
	FrameSubscribe   = 0x02 // 0x03 is reserved (a retired link ack)
	FrameHello       = 0x04
	FrameUnsubscribe = 0x05
	FrameHeartbeat   = 0x06
	// FrameData carries a message on a broker-to-broker link (and, with
	// per-session sequence numbers, from an edge broker to a subscriber):
	// seq(8) base(8) epoch(4) message. seq is the link-local sequence
	// number; base is the sender's lowest still-live sequence (the
	// receiver must not wait for anything below it).
	FrameData = 0x07
	// FrameDataDrop is a FrameData the injected loss shim mangled in
	// flight: same body, delivered only so the wire totals balance, then
	// discarded — the receiver treats it as a vanished transmission.
	FrameDataDrop = 0x08
	// FrameResume is a subscriber's session-resumption request: after a
	// disconnect it re-attaches to its edge broker with its resume token
	// — subscription id + last delivered sequence — and the broker
	// replays only the buffered messages above that sequence whose
	// remaining slack still admits an in-bound delivery.
	FrameResume = 0x09
)

// Hello roles: the first frame on every live-runtime connection declares
// who is connecting.
const (
	RoleBroker     = 0x01
	RolePublisher  = 0x02
	RoleSubscriber = 0x03
)

// AppendHello appends a hello body: role byte + node id + the sender's
// incarnation epoch (0 for clients and never-restarted brokers).
func AppendHello(dst []byte, role byte, id NodeID, epoch uint32) []byte {
	dst = append(dst, role)
	dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	return binary.BigEndian.AppendUint32(dst, epoch)
}

// DecodeHello parses a hello body.
func DecodeHello(body []byte) (role byte, id NodeID, epoch uint32, err error) {
	if len(body) != 9 {
		return 0, 0, 0, fmt.Errorf("%w: hello body %d bytes", ErrCorrupt, len(body))
	}
	return body[0], NodeID(binary.BigEndian.Uint32(body[1:])), binary.BigEndian.Uint32(body[5:]), nil
}

// AppendHeartbeat appends a heartbeat body: the sending broker's id and
// its incarnation epoch. Heartbeats are per-link liveness probes; the
// receiver tracks the last time it heard each neighbor and declares the
// link dead after a configurable silence. The epoch lets it reject
// probes from a stale incarnation of a restarted peer.
func AppendHeartbeat(dst []byte, id NodeID, epoch uint32) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	return binary.BigEndian.AppendUint32(dst, epoch)
}

// DecodeHeartbeat parses a heartbeat body.
func DecodeHeartbeat(body []byte) (NodeID, uint32, error) {
	if len(body) != 8 {
		return 0, 0, fmt.Errorf("%w: heartbeat body %d bytes", ErrCorrupt, len(body))
	}
	return NodeID(binary.BigEndian.Uint32(body)), binary.BigEndian.Uint32(body[4:]), nil
}

// AppendUnsubscribe appends an unsubscribe body: the subscription id.
func AppendUnsubscribe(dst []byte, id SubID) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(id))
}

// DecodeUnsubscribe parses an unsubscribe body.
func DecodeUnsubscribe(body []byte) (SubID, error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("%w: unsubscribe body %d bytes", ErrCorrupt, len(body))
	}
	return SubID(binary.BigEndian.Uint32(body)), nil
}

// DataHdrLen is the fixed prefix a FrameData body carries before the
// message encoding: seq(8) base(8) epoch(4).
const DataHdrLen = 20

// AppendDataHeader appends the link data prefix: seq(8) base(8)
// epoch(4). The message body encoding (AppendMessage) follows it. The
// epoch is the sender's incarnation; a receiver that has heard a newer
// incarnation of the same peer rejects the frame as stale.
func AppendDataHeader(dst []byte, seq, base uint64, epoch uint32) []byte {
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint64(dst, base)
	return binary.BigEndian.AppendUint32(dst, epoch)
}

// DecodeDataHeader splits a FrameData body into its sequence numbers,
// the sender's incarnation epoch, and the message body that follows
// (aliasing body, not copying).
func DecodeDataHeader(body []byte) (seq, base uint64, epoch uint32, msgBody []byte, err error) {
	if len(body) < DataHdrLen {
		return 0, 0, 0, nil, fmt.Errorf("%w: data body %d bytes", ErrCorrupt, len(body))
	}
	seq = binary.BigEndian.Uint64(body)
	base = binary.BigEndian.Uint64(body[8:])
	epoch = binary.BigEndian.Uint32(body[16:])
	if base > seq {
		return 0, 0, 0, nil, fmt.Errorf("%w: data base %d above seq %d", ErrCorrupt, base, seq)
	}
	return seq, base, epoch, body[DataHdrLen:], nil
}

// ResumeBodyLen is the fixed size of a FrameResume body: subID(4)
// lastSeq(8).
const ResumeBodyLen = 12

// AppendResume appends a session-resumption body: the subscription id
// (doubling as the session id) and the last delivery sequence the
// subscriber actually received.
func AppendResume(dst []byte, sub SubID, lastSeq uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(sub))
	return binary.BigEndian.AppendUint64(dst, lastSeq)
}

// DecodeResume parses a session-resumption body.
func DecodeResume(body []byte) (sub SubID, lastSeq uint64, err error) {
	if len(body) != ResumeBodyLen {
		return 0, 0, fmt.Errorf("%w: resume body %d bytes", ErrCorrupt, len(body))
	}
	return SubID(binary.BigEndian.Uint32(body)), binary.BigEndian.Uint64(body[4:]), nil
}

// Codec limits.
const (
	wireMagic   = 0xBD75
	wireVersion = 2

	MaxAttrs      = 1024
	MaxNameLen    = 255
	MaxStrLen     = 1 << 16 // 64 KiB
	MaxPayloadLen = 16 << 20
	MaxFilterLen  = 1<<16 - 1 // a filter's encoding, behind a 2-byte length
	MaxBodyLen    = 32 << 20
)

// Codec errors.
var (
	ErrBadMagic   = errors.New("msg: bad frame magic")
	ErrBadVersion = errors.New("msg: unsupported wire version")
	ErrCorrupt    = errors.New("msg: corrupt frame")
	ErrTooLarge   = errors.New("msg: frame field exceeds limit")
)

// AppendMessage appends the body encoding of m to dst and returns the
// extended slice.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	if m.Attrs.Len() > MaxAttrs {
		return dst, fmt.Errorf("%w: %d attributes", ErrTooLarge, m.Attrs.Len())
	}
	if len(m.Payload) > MaxPayloadLen {
		return dst, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(m.Payload))
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.ID))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Publisher))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Ingress))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Published))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Allowed))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.SizeKB))
	dst = binary.BigEndian.AppendUint16(dst, uint16(m.Attrs.Len()))
	for _, a := range m.Attrs.All() {
		if len(a.Name) > MaxNameLen {
			return dst, fmt.Errorf("%w: attribute name %d bytes", ErrTooLarge, len(a.Name))
		}
		dst = append(dst, byte(len(a.Name)))
		dst = append(dst, a.Name...)
		if a.Val.Kind == filter.Number {
			dst = append(dst, 0)
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Val.Num))
		} else {
			if len(a.Val.Str) > MaxStrLen {
				return dst, fmt.Errorf("%w: string value %d bytes", ErrTooLarge, len(a.Val.Str))
			}
			dst = append(dst, 1)
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Val.Str)))
			dst = append(dst, a.Val.Str...)
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
	dst = append(dst, m.Payload...)
	return dst, nil
}

// DecodeMessage parses a message body produced by AppendMessage.
func DecodeMessage(body []byte) (*Message, error) {
	r := reader{buf: body}
	m := &Message{}
	m.ID = ID(r.u64())
	m.Publisher = NodeID(r.u32())
	m.Ingress = NodeID(r.u32())
	m.Published = math.Float64frombits(r.u64())
	m.Allowed = math.Float64frombits(r.u64())
	m.SizeKB = math.Float64frombits(r.u64())
	n := int(r.u16())
	if n > MaxAttrs {
		return nil, fmt.Errorf("%w: %d attributes", ErrTooLarge, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		nameLen := int(r.u8())
		name := string(r.bytes(nameLen))
		kind := r.u8()
		switch kind {
		case 0:
			m.Attrs.Set(name, filter.Num(math.Float64frombits(r.u64())))
		case 1:
			strLen := int(r.u16())
			if strLen > MaxStrLen {
				return nil, fmt.Errorf("%w: string value %d bytes", ErrTooLarge, strLen)
			}
			m.Attrs.Set(name, filter.Str(string(r.bytes(strLen))))
		default:
			return nil, fmt.Errorf("%w: unknown attr kind %d", ErrCorrupt, kind)
		}
	}
	payloadLen := int(r.u32())
	if payloadLen > MaxPayloadLen {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, payloadLen)
	}
	if payloadLen > 0 {
		m.Payload = append([]byte(nil), r.bytes(payloadLen)...)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-r.pos)
	}
	return m, nil
}

// AppendSubscription appends the body encoding of s to dst. Into a
// buffer with room it allocates nothing.
func AppendSubscription(dst []byte, s *Subscription) ([]byte, error) {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.ID))
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.Edge))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Deadline))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.Price))
	lenAt := len(dst)
	dst = append(dst, 0, 0) // filterLen, filled in below
	dst, err := s.Filter.AppendBinary(dst)
	if err != nil {
		return dst[:start], fmt.Errorf("%w: %v", ErrTooLarge, err)
	}
	n := len(dst) - lenAt - 2
	if n > MaxFilterLen {
		return dst[:start], fmt.Errorf("%w: filter %d bytes", ErrTooLarge, n)
	}
	binary.BigEndian.PutUint16(dst[lenAt:], uint16(n))
	return dst, nil
}

// DecodeSubscription parses a subscription body.
func DecodeSubscription(body []byte) (*Subscription, error) {
	r := reader{buf: body}
	id := SubID(r.u32())
	edge := NodeID(r.u32())
	deadline := math.Float64frombits(r.u64())
	price := math.Float64frombits(r.u64())
	fb := r.bytes(int(r.u16()))
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-r.pos)
	}
	f, err := filter.DecodeBinary(fb)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Subscription{ID: id, Edge: edge, Deadline: deadline, Price: price, Filter: f}, nil
}

// WriteFrame writes one framed body to w, header and body in a single
// Write: on a TCP_NODELAY socket every Write is a system call and a
// segment of its own.
func WriteFrame(w io.Writer, frameType byte, body []byte) error {
	if len(body) > MaxBodyLen {
		return fmt.Errorf("%w: body %d bytes", ErrTooLarge, len(body))
	}
	buf := BeginFrame(make([]byte, 0, frameHdrLen+len(body)), frameType)
	buf = append(buf, body...)
	if err := EndFrame(buf, 0); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one framed body from r. It returns the frame type and
// body, or an error (io.EOF cleanly at a frame boundary).
func ReadFrame(r io.Reader) (frameType byte, body []byte, err error) {
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint16(hdr) != wireMagic {
		return 0, nil, ErrBadMagic
	}
	if hdr[2] != wireVersion {
		return 0, nil, ErrBadVersion
	}
	frameType = hdr[3]
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxBodyLen {
		return 0, nil, fmt.Errorf("%w: body %d bytes", ErrTooLarge, n)
	}
	body = make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return frameType, body, nil
}

// reader is a bounds-checked sequential decoder.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.err = fmt.Errorf("%w: truncated at byte %d", ErrCorrupt, r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) bytes(n int) []byte {
	if n < 0 {
		r.err = ErrCorrupt
		return nil
	}
	return r.take(n)
}
