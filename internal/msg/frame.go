package msg

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"bdps/internal/filter"
)

// This file is the zero-copy half of the wire codec: pooled frame
// buffers, a per-connection FrameReader that reads into them without
// per-frame allocation, a Decoder that decodes into pooled Messages
// whose payloads alias the frame buffer, and single-buffer frame
// assembly (BeginFrame/EndFrame) for batched writev egress. The same
// Decoder's parser also fills messages a consumer keeps, carved from a
// Slab (slab.go): what a subscriber's read loop hands its consumer. The
// allocating entry points in codec.go (ReadFrame, DecodeMessage) remain
// the simple path and the fuzzers' reference; the live data plane uses
// this one. An idle connection's FrameReader holds 2 KiB; it borrows a
// 64 KiB batch buffer from a pool only while frames are queued on the
// connection.

// maxPooledFrame bounds the frame buffers kept by the pool. Oversized
// bodies (jumbo payloads) still decode, but their buffers are dropped
// rather than pinned in the pool forever.
const maxPooledFrame = 64 << 10

// FrameBuf is one pooled frame body buffer. A FrameBuf is owned by
// whoever holds it: the FrameReader until the frame is decoded, then —
// when a decoded Message's payload aliases it — the Message until its
// last Release.
type FrameBuf struct {
	b []byte
}

var framePool = sync.Pool{New: func() any { return new(FrameBuf) }}

// GetFrameBuf returns a pooled frame buffer.
func GetFrameBuf() *FrameBuf { return framePool.Get().(*FrameBuf) }

// Release returns the buffer to the pool. Callers must drop every alias
// into the buffer first.
func (fb *FrameBuf) Release() {
	if fb == nil {
		return
	}
	if cap(fb.b) > maxPooledFrame {
		fb.b = nil
	}
	framePool.Put(fb)
}

// grow makes fb.b exactly n bytes long, reusing capacity.
func (fb *FrameBuf) grow(n int) []byte {
	if cap(fb.b) < n {
		fb.b = make([]byte, n)
	}
	fb.b = fb.b[:n]
	return fb.b
}

// BatchBufSize is the most one read of a FrameReader takes from its
// connection: the buffer a connection borrows while frames are queued.
// A writer that sends at most this much at once fills at most one read.
const BatchBufSize = 64 << 10

// idleBufSize is the buffer a FrameReader holds inline: it fits one data
// frame of every live workload's one-at-a-time phase, and leaves room
// for the reader's other fields and the allocator's 8-byte header so
// that a FrameReader takes exactly 2 KiB, one malloc size class, on
// 64-bit platforms (TestFrameReaderIsOneSizeClass).
const idleBufSize = 2<<10 - 64

// batchPool lends batch buffers to readers with frames queued. Like
// framePool it is emptied by the collector, so a burst's buffers do not
// outlive it.
var batchPool = sync.Pool{New: func() any { return new([BatchBufSize]byte) }}

// FrameReader reads frames from one connection through pooled body
// buffers: zero steady-state allocations per frame. An idle connection
// holds only the reader's inline buffer. A read that fills it with a
// frame cut at its end means more frames are queued in the kernel, so
// the next read borrows a BatchBufSize buffer from a pool, and the
// reader gives it back as soon as it has drained, before it blocks
// again. A body larger than the buffer in use is read straight into its
// FrameBuf. It is not safe for concurrent use (one reader goroutine per
// connection, as the live runtime runs).
type FrameReader struct {
	rd    io.Reader
	r, w  int                 // buf()[r:w] is read and not yet consumed
	batch *[BatchBufSize]byte // borrowed while frames are queued, else nil
	err   error               // the last read's error, returned once the bytes before it are consumed
	idle  [idleBufSize]byte
}

// NewFrameReader wraps a connection in a 2 KiB reader, all that an idle
// connection holds. The buffered layer is what lets the ingress path
// batch: after one frame is read, Buffered reports whether more frames
// are already in userspace.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{rd: r} }

// Buffered reports how many bytes are already readable without a
// syscall.
func (fr *FrameReader) Buffered() int { return fr.w - fr.r }

// buf is the buffer in use: the batch while one is borrowed.
func (fr *FrameReader) buf() []byte {
	if fr.batch != nil {
		return fr.batch[:]
	}
	return fr.idle[:]
}

// Next reads one frame into fb and returns the frame type and the body
// (aliasing fb's buffer). Ownership of the buffer content passes to the
// caller until fb is reused or released.
func (fr *FrameReader) Next(fb *FrameBuf) (frameType byte, body []byte, err error) {
	if err := fr.fill(frameHdrLen); err != nil {
		if err == io.EOF && fr.w > fr.r {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	hdr := fr.buf()[fr.r : fr.r+frameHdrLen]
	fr.r += frameHdrLen
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
	body = fb.grow(int(n))
	if len(body) <= len(fr.buf()) {
		if err = fr.fill(len(body)); err == nil {
			fr.r += copy(body, fr.buf()[fr.r:fr.w])
		}
	} else {
		k := copy(body, fr.buf()[fr.r:fr.w])
		fr.r = fr.w
		fr.settle()
		err = fr.takeErr()
		for k < len(body) && err == nil {
			var n int
			n, err = fr.rd.Read(body[k:])
			k += n
		}
		if k == len(body) {
			fr.err, err = err, nil // held for the next call, as behind buffered bytes
		}
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	fr.settle()
	return frameType, body, nil
}

// fill reads until need bytes, at most the buffer in use, are buffered.
func (fr *FrameReader) fill(need int) error {
	for fr.w-fr.r < need {
		if fr.err != nil {
			return fr.takeErr()
		}
		unread := fr.buf()[fr.r:fr.w]
		if fr.batch == nil && fr.w == len(fr.idle) && len(unread) > 0 {
			// The last read filled the idle buffer and a frame runs past
			// its end: more frames are queued.
			fr.batch = batchPool.Get().(*[BatchBufSize]byte)
		}
		buf := fr.buf()
		fr.r, fr.w = 0, copy(buf, unread)
		n, err := fr.rd.Read(buf[fr.w:])
		fr.w += n
		fr.err = err
	}
	return nil
}

// settle returns a drained batch buffer to its pool and rewinds the
// idle one.
func (fr *FrameReader) settle() {
	if fr.r < fr.w {
		return
	}
	if fr.batch != nil {
		batchPool.Put(fr.batch)
		fr.batch = nil
	}
	fr.r, fr.w = 0, 0
}

// takeErr returns the pending read error and clears it.
func (fr *FrameReader) takeErr() error {
	err := fr.err
	fr.err = nil
	return err
}

// frameHdrLen is the fixed frame header size.
const frameHdrLen = 8

// BeginFrame appends a frame header with a placeholder body length and
// returns the extended buffer. Append the body, then call EndFrame on
// the same region to patch the length in. This assembles header + body
// in one contiguous buffer, so a sender can push a whole burst of
// frames with one writev instead of two writes per frame.
func BeginFrame(dst []byte, frameType byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, wireMagic)
	dst = append(dst, wireVersion, frameType, 0, 0, 0, 0)
	return dst
}

// EndFrame patches the body length of the frame whose header starts at
// offset start. It returns an error when the body exceeds MaxBodyLen.
func EndFrame(buf []byte, start int) error {
	body := len(buf) - start - frameHdrLen
	if body < 0 {
		return fmt.Errorf("%w: EndFrame before BeginFrame", ErrCorrupt)
	}
	if body > MaxBodyLen {
		return fmt.Errorf("%w: body %d bytes", ErrTooLarge, body)
	}
	binary.BigEndian.PutUint32(buf[start+4:], uint32(body))
	return nil
}

// CompleteFrames counts the whole frames at the front of buf, a run of
// assembled frames cut anywhere: what a partial write of the run
// delivered intact.
func CompleteFrames(buf []byte) int {
	n := 0
	for len(buf) >= frameHdrLen {
		flen := frameHdrLen + int(binary.BigEndian.Uint32(buf[4:]))
		if flen > len(buf) {
			break
		}
		buf = buf[flen:]
		n++
	}
	return n
}

// AppendMessageFrame assembles one complete message frame (header +
// body) into dst — the publisher's reusable-buffer encoder.
func AppendMessageFrame(dst []byte, m *Message) ([]byte, error) {
	start := len(dst)
	dst = BeginFrame(dst, FrameMessage)
	dst, err := AppendMessage(dst, m)
	if err != nil {
		return dst[:start], err
	}
	if err := EndFrame(dst, start); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// AppendDataFrame assembles one complete link data frame (header +
// seq/base/epoch prefix + message body) into dst — what every broker
// writes to a neighbor or a subscriber, into a reusable burst buffer.
func AppendDataFrame(dst []byte, seq, base uint64, epoch uint32, m *Message) ([]byte, error) {
	start := len(dst)
	dst = BeginFrame(dst, FrameData)
	dst = AppendDataHeader(dst, seq, base, epoch)
	dst, err := AppendMessage(dst, m)
	if err != nil {
		return dst[:start], err
	}
	if err := EndFrame(dst, start); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// PutDataSeq overwrites the seq and base fields of a complete FrameData
// frame assembled at offset 0, so a frame encoded once can be stamped
// with a per-receiver sequence in each receiver's copy.
func PutDataSeq(frame []byte, seq, base uint64) {
	binary.BigEndian.PutUint64(frame[frameHdrLen:], seq)
	binary.BigEndian.PutUint64(frame[frameHdrLen+8:], base)
}

// DataFrameType returns the offset of the frame-type byte within a frame
// assembled at `start` — the byte the loss shim mangles to turn a
// FrameData into a FrameDataDrop without reassembling the burst.
func DataFrameType(start int) int { return start + 3 }

// ---------------------------------------------------------------------
// Pooled messages.

// messagePool recycles Messages decoded by the live ingress path. A
// pooled message is reference-counted: the decoder starts it at one
// reference, the broker retains one per output queue the message enters,
// and each sender (or drop path) releases its reference after the final
// encode. The last release returns the message — and the frame buffer
// its payload aliases — to the pools.
var messagePool = sync.Pool{New: func() any { return new(Message) }}

func (m *Message) init() {
	m.pooled = true
	atomic.StoreInt32(&m.refs, 1)
}

// GetMessage returns a pooled message with one reference. Its AttrSet
// keeps the backing array of its previous life, so steady-state decoding
// allocates nothing.
func GetMessage() *Message {
	m := messagePool.Get().(*Message)
	m.init()
	return m
}

// Retain adds n references to a pooled message. It is a no-op for
// ordinary (non-pooled) messages, so runtime code can manage references
// unconditionally.
func (m *Message) Retain(n int32) {
	if m.pooled {
		atomic.AddInt32(&m.refs, n)
	}
}

// Release drops one reference; ReleaseN drops n. The last release
// resets the message, releases the frame buffer the payload aliases,
// and returns the message to the pool. Both are no-ops for non-pooled
// messages.
func (m *Message) Release() { m.ReleaseN(1) }

// ReleaseN drops n references (see Release).
func (m *Message) ReleaseN(n int32) {
	if !m.pooled || n == 0 {
		return
	}
	if n < 0 {
		// A negative count would silently *add* references and leak the
		// message (and mask a retain-accounting bug upstream).
		panic("msg: negative release count")
	}
	if left := atomic.AddInt32(&m.refs, -n); left > 0 {
		return
	} else if left < 0 {
		panic("msg: message over-released")
	}
	m.pooled = false
	m.ID, m.Publisher, m.Ingress = 0, 0, 0
	m.Published, m.Allowed, m.SizeKB = 0, 0, 0
	m.Attrs.Reset()
	m.Payload = nil
	if fb := m.frame; fb != nil {
		m.frame = nil
		fb.Release()
	}
	messagePool.Put(m)
}

// ---------------------------------------------------------------------
// Zero-copy decoding.

// maxInterned bounds the per-decoder intern table's entry count and
// maxInternedLen each entry's size, so a hostile peer cycling attribute
// names or values cannot pin more than ~entry-cap × len-cap bytes per
// connection (attribute names are short by nature; long string values —
// up to MaxStrLen — are decoded fresh instead of retained). Past either
// cap, unseen strings fall back to an ordinary allocation.
const (
	maxInterned    = 4096
	maxInternedLen = 64
)

// Decoder decodes message bodies into pooled Messages without
// steady-state allocation: attribute names and string values are
// interned in a per-decoder table (attribute vocabularies are tiny and
// highly repetitive), and the payload aliases the frame buffer. One
// decoder per connection; not safe for concurrent use.
type Decoder struct {
	interned map[string]string
}

// intern returns b as a string, reusing a previous allocation when the
// same bytes have been seen before. Oversized strings are not retained
// (see maxInternedLen).
func (d *Decoder) intern(b []byte) string {
	if len(b) > maxInternedLen {
		return string(b)
	}
	if s, ok := d.interned[string(b)]; ok { // no alloc: mapaccess on []byte key
		return s
	}
	s := string(b)
	if d.interned == nil {
		d.interned = make(map[string]string, 16)
	}
	if len(d.interned) < maxInterned {
		d.interned[s] = s
	}
	return s
}

// DecodeMessageInto decodes a message body into m, reusing m's
// attribute backing array. When fb is non-nil and the message carries a
// payload, the payload aliases fb's buffer and m takes ownership of fb
// (released by m's last Release); otherwise the payload aliases body,
// which stays the caller's. The returned boolean reports whether m took
// ownership.
func (d *Decoder) DecodeMessageInto(m *Message, body []byte, fb *FrameBuf) (tookFrame bool, err error) {
	payload, err := d.decode(m, body, nil)
	if err != nil {
		return false, err
	}
	m.Payload = payload
	if payload != nil && fb != nil {
		m.frame = fb
		return true, nil
	}
	return false, nil
}

// decode is the one parser behind DecodeMessageInto and DecodeSlab: it
// fills m's header fields and attributes and returns the payload, nil
// when empty, aliasing body. The attributes go into m's own backing
// array, grown to their count, or into a window carved from s when s is
// non-nil.
func (d *Decoder) decode(m *Message, body []byte, s *Slab) (payload []byte, err error) {
	r := reader{buf: body}
	m.ID = ID(r.u64())
	m.Publisher = NodeID(r.u32())
	m.Ingress = NodeID(r.u32())
	m.Published = math.Float64frombits(r.u64())
	m.Allowed = math.Float64frombits(r.u64())
	m.SizeKB = math.Float64frombits(r.u64())
	m.Attrs.Reset()
	n := int(r.u16())
	if n > MaxAttrs {
		return nil, fmt.Errorf("%w: %d attributes", ErrTooLarge, n)
	}
	if n > 0 && len(body) >= n*3 {
		// Reserve the exact count in one step (bounded by the body
		// length: each attr costs at least 3 wire bytes).
		if s != nil {
			m.Attrs.UseBuffer(s.attrWindow(n))
		} else {
			m.Attrs.Grow(n)
		}
	}
	for i := 0; i < n && r.err == nil; i++ {
		nameLen := int(r.u8())
		name := r.bytes(nameLen)
		kind := r.u8()
		switch kind {
		case 0:
			m.Attrs.Set(d.intern(name), filter.Num(math.Float64frombits(r.u64())))
		case 1:
			strLen := int(r.u16())
			if strLen > MaxStrLen {
				return nil, fmt.Errorf("%w: string value %d bytes", ErrTooLarge, strLen)
			}
			m.Attrs.Set(d.intern(name), filter.Str(d.intern(r.bytes(strLen))))
		default:
			return nil, fmt.Errorf("%w: unknown attr kind %d", ErrCorrupt, kind)
		}
	}
	payloadLen := int(r.u32())
	if payloadLen > MaxPayloadLen {
		return nil, fmt.Errorf("%w: payload %d bytes", ErrTooLarge, payloadLen)
	}
	payload = r.bytes(payloadLen)
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-r.pos)
	}
	if payloadLen == 0 {
		return nil, nil
	}
	return payload, nil
}
