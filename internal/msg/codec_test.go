package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"bdps/internal/filter"
)

func sampleMessage() *Message {
	return &Message{
		ID:        MakeID(2, 77),
		Publisher: 2,
		Ingress:   1,
		Published: 123456.5,
		Allowed:   20000,
		SizeKB:    50,
		Attrs: NewAttrSet(
			Attr{"A1", filter.Num(3.25)},
			Attr{"A2", filter.Num(8.5)},
			Attr{"topic", filter.Str("traffic/k11")},
		),
		Payload: []byte("hello world"),
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	m := sampleMessage()
	body, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n in  %+v\n out %+v", m, got)
	}
}

func TestMessageCodecEmptyPayloadNilVsZero(t *testing.T) {
	m := sampleMessage()
	m.Payload = nil
	body, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil {
		t.Error("nil payload should decode as nil")
	}
}

func TestMessageCodecQuick(t *testing.T) {
	prop := func(id uint64, pub, ing int32, published, allowed, size float64,
		a1, a2 float64, s string) bool {
		if math.IsNaN(published) || math.IsNaN(allowed) || math.IsNaN(size) ||
			math.IsNaN(a1) || math.IsNaN(a2) {
			return true
		}
		if len(s) > 1000 {
			s = s[:1000]
		}
		m := &Message{
			ID: ID(id), Publisher: NodeID(pub), Ingress: NodeID(ing),
			Published: published, Allowed: allowed, SizeKB: size,
			Attrs: NewAttrSet(
				Attr{"A1", filter.Num(a1)},
				Attr{"A2", filter.Num(a2)},
				Attr{"s", filter.Str(s)},
			),
		}
		body, err := AppendMessage(nil, m)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(body)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeMessageTruncated(t *testing.T) {
	body, err := AppendMessage(nil, sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut += 3 {
		if _, err := DecodeMessage(body[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes should fail", cut)
		}
	}
}

func TestDecodeMessageTrailingGarbage(t *testing.T) {
	body, err := AppendMessage(nil, sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(body, 0xFF)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestDecodeMessageBadAttrKind(t *testing.T) {
	m := &Message{Attrs: NewAttrSet(Attr{"a", filter.Num(1)})}
	body, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	// The attr kind byte sits right after the name; find and corrupt it.
	i := bytes.Index(body, []byte("a")) + 1
	body[i] = 9
	if _, err := DecodeMessage(body); err == nil {
		t.Error("unknown attr kind should fail")
	}
}

func TestAppendMessageLimits(t *testing.T) {
	m := &Message{Payload: make([]byte, MaxPayloadLen+1)}
	if _, err := AppendMessage(nil, m); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized payload: err = %v, want ErrTooLarge", err)
	}
	m2 := &Message{Attrs: NewAttrSet(Attr{strings.Repeat("n", MaxNameLen+1), filter.Num(1)})}
	if _, err := AppendMessage(nil, m2); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized name: err = %v, want ErrTooLarge", err)
	}
}

func TestSubscriptionCodecRoundTrip(t *testing.T) {
	s := &Subscription{
		ID: 42, Edge: 19,
		Filter:   filter.MustParse("A1 < 6.25 && A2 < 3"),
		Deadline: 30000, Price: 2,
	}
	body, err := AppendSubscription(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubscription(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != s.ID || got.Edge != s.Edge || got.Deadline != s.Deadline || got.Price != s.Price {
		t.Errorf("fields mismatch: %+v vs %+v", got, s)
	}
	if got.Filter.String() != s.Filter.String() {
		t.Errorf("filter mismatch: %q vs %q", got.Filter.String(), s.Filter.String())
	}
}

func TestSubscriptionCodecWildcard(t *testing.T) {
	s := &Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	body, err := AppendSubscription(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubscription(body)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Filter.Match(NumAttrs(map[string]float64{"x": 1})) {
		t.Error("wildcard filter should survive the codec")
	}
}

// TestSubscriptionCodecAllocs pins the control path's allocations:
// encoding into a reused buffer makes none, and decoding a fanout-shaped
// subscription (a three-predicate range conjunction on interned
// attributes) makes four — the Subscription, its predicates, the
// conjunction node and the Filter.
func TestSubscriptionCodecAllocs(t *testing.T) {
	s := &Subscription{ID: 4242, Edge: 3, Deadline: 30000, Price: 2,
		Filter: filter.MustParse("A1 > 0.3 && A1 < 0.34 && A2 < 0.7")}
	buf, err := AppendSubscription(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = AppendSubscription(buf[:0], s)
	}); n != 0 {
		t.Errorf("AppendSubscription into a reused buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeSubscription(buf); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("DecodeSubscription of a fanout-shaped filter: %v allocs, want ≤ 4", n)
	}
}

// TestDecodeSubscriptionRejectsDeepNesting: a filter body nesting groups
// far past filter.MaxBinaryDepth is refused as corrupt.
func TestDecodeSubscriptionRejectsDeepNesting(t *testing.T) {
	body, err := AppendSubscription(nil, &Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}})
	if err != nil {
		t.Fatal(err)
	}
	body = body[:len(body)-3] // drop the wildcard filter and its length
	var deep []byte
	for len(deep)+3 <= MaxFilterLen {
		deep = append(deep, 3, 0, 2) // an and-group of two, opening the next
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(deep)))
	body = append(body, deep...)
	if _, err := DecodeSubscription(body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("deeply nested filter: err %v, want ErrCorrupt", err)
	}
}

func TestDecodeSubscriptionTruncated(t *testing.T) {
	s := &Subscription{ID: 1, Edge: 2, Filter: filter.MustParse("a<1")}
	body, _ := AppendSubscription(nil, s)
	for cut := 0; cut < len(body); cut += 2 {
		if _, err := DecodeSubscription(body[:cut]); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
}

// countingWriter counts the Write calls that reach its buffer.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFrameRoundTrip writes frames with WriteFrame — one Write each, so
// a control frame is one system call on a socket — and reads the bytes
// back unchanged through both readers.
func TestFrameRoundTrip(t *testing.T) {
	var buf countingWriter
	body, _ := AppendMessage(nil, sampleMessage())
	if err := WriteFrame(&buf, FrameMessage, body); err != nil {
		t.Fatal(err)
	}
	sub := &Subscription{ID: 1, Edge: 2, Filter: filter.MustParse("a<1")}
	sbody, _ := AppendSubscription(nil, sub)
	if err := WriteFrame(&buf, FrameSubscribe, sbody); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	if buf.writes != 3 {
		t.Errorf("3 frames took %d Write calls, want one per frame", buf.writes)
	}

	ft, b, err := ReadFrame(&buf)
	if err != nil || ft != FrameMessage || !bytes.Equal(b, body) {
		t.Fatalf("first frame: type=%d err=%v", ft, err)
	}
	fr := NewFrameReader(&buf)
	var fb FrameBuf
	ft, b, err = fr.Next(&fb)
	if err != nil || ft != FrameSubscribe || !bytes.Equal(b, sbody) {
		t.Fatalf("second frame: type=%d err=%v", ft, err)
	}
	ft, b, err = fr.Next(&fb)
	if err != nil || ft != FrameHeartbeat || len(b) != 0 {
		t.Fatalf("third frame: type=%d body=%d bytes err=%v", ft, len(b), err)
	}
	if _, _, err = fr.Next(&fb); err != io.EOF {
		t.Errorf("FrameReader: clean EOF expected, got %v", err)
	}
	if _, _, err = ReadFrame(&buf); err != io.EOF {
		t.Errorf("ReadFrame: clean EOF expected, got %v", err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0, 0, 1, 1, 0, 0, 0, 0})
	if _, _, err := ReadFrame(buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadFrameBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[2] = 99
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameMessage, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-3]
	if _, _, err := ReadFrame(bytes.NewReader(raw)); err != io.ErrUnexpectedEOF {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestDecodeMessageNeverPanicsOnMutation flips random bytes in valid
// encodings: decoding must fail cleanly or succeed, never panic or
// over-allocate.
func TestDecodeMessageNeverPanicsOnMutation(t *testing.T) {
	base, err := AppendMessage(nil, sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for trial := 0; trial < 5000; trial++ {
		mut := append([]byte(nil), base...)
		for flips := 0; flips <= trial%4; flips++ {
			mut[next(len(mut))] ^= byte(1 << next(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on mutation %d: %v", trial, r)
				}
			}()
			_, _ = DecodeMessage(mut)
		}()
	}
}

// TestDecodeSubscriptionNeverPanicsOnGarbage feeds raw noise.
func TestDecodeSubscriptionNeverPanicsOnGarbage(t *testing.T) {
	rng := uint64(12345)
	next := func() byte {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return byte(rng)
	}
	for trial := 0; trial < 3000; trial++ {
		buf := make([]byte, trial%97)
		for i := range buf {
			buf[i] = next()
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked on garbage %d: %v", trial, r)
				}
			}()
			_, _ = DecodeSubscription(buf)
			_, _ = DecodeMessage(buf)
			_, _, _, _ = DecodeHello(buf)
			_, _, _ = DecodeHeartbeat(buf)
			_, _, _ = DecodeResume(buf)
		}()
	}
}

func TestHelloCodec(t *testing.T) {
	body := AppendHello(nil, RoleSubscriber, 42, 7)
	role, id, epoch, err := DecodeHello(body)
	if err != nil || role != RoleSubscriber || id != 42 || epoch != 7 {
		t.Errorf("hello round trip: role=%d id=%d epoch=%d err=%v", role, id, epoch, err)
	}
	// Every writer sends the epoch: a body without it is corrupt.
	if _, _, _, err := DecodeHello(body[:5]); err == nil {
		t.Error("epoch-less hello should fail")
	}
	if _, _, _, err := DecodeHello([]byte{1, 2}); err == nil {
		t.Error("short hello should fail")
	}
}

func TestHeartbeatCodec(t *testing.T) {
	body := AppendHeartbeat(nil, 6, 3)
	id, epoch, err := DecodeHeartbeat(body)
	if err != nil || id != 6 || epoch != 3 {
		t.Errorf("heartbeat round trip: id=%d epoch=%d err=%v", id, epoch, err)
	}
	if _, _, err := DecodeHeartbeat(body[:4]); err == nil {
		t.Error("epoch-less heartbeat should fail")
	}
	if _, _, err := DecodeHeartbeat(body[:3]); err == nil {
		t.Error("short heartbeat should fail")
	}
}

func TestResumeCodec(t *testing.T) {
	body := AppendResume(nil, 42, 1<<40)
	sub, lastSeq, err := DecodeResume(body)
	if err != nil || sub != 42 || lastSeq != 1<<40 {
		t.Errorf("resume round trip: sub=%d lastSeq=%d err=%v", sub, lastSeq, err)
	}
	if _, _, err := DecodeResume(body[:8]); err == nil {
		t.Error("short resume should fail")
	}
}

func TestDataHeaderEpoch(t *testing.T) {
	body := AppendDataHeader(nil, 9, 5, 2)
	seq, base, epoch, rest, err := DecodeDataHeader(body)
	if err != nil || seq != 9 || base != 5 || epoch != 2 || len(rest) != 0 {
		t.Errorf("data header round trip: seq=%d base=%d epoch=%d err=%v", seq, base, epoch, err)
	}
	if _, _, _, _, err := DecodeDataHeader(AppendDataHeader(nil, 3, 9, 0)); err == nil {
		t.Error("base above seq should fail")
	}
	// A frame encoded once and stamped afterwards decodes to the stamped
	// sequence with epoch and message untouched.
	frame, err := AppendDataFrame(nil, 0, 0, 2, &Message{ID: 77})
	if err != nil {
		t.Fatal(err)
	}
	PutDataSeq(frame, 9, 5)
	ft, fbody, err := ReadFrame(bytes.NewReader(frame))
	if err != nil || ft != FrameData {
		t.Fatalf("stamped frame: type %d err %v", ft, err)
	}
	seq, base, epoch, rest, err = DecodeDataHeader(fbody)
	if err != nil || seq != 9 || base != 5 || epoch != 2 {
		t.Errorf("stamped header: seq=%d base=%d epoch=%d err=%v", seq, base, epoch, err)
	}
	if m, err := DecodeMessage(rest); err != nil || m.ID != 77 {
		t.Errorf("stamped frame's message: %v err %v", m, err)
	}
}

func TestReadFrameHugeBodyRejected(t *testing.T) {
	raw := []byte{0xBD, 0x75, wireVersion, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}
