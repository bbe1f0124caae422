package msg

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"

	"bdps/internal/filter"
	"bdps/internal/vtime"
)

func testMessage(seq uint32) *Message {
	return &Message{
		ID:        MakeID(3, seq),
		Publisher: 3,
		Ingress:   1,
		Published: 123456.5,
		Allowed:   20 * vtime.Second,
		SizeKB:    50,
		Attrs: NewAttrSet(
			Attr{Name: "A1", Val: filter.Num(4.25)},
			Attr{Name: "A2", Val: filter.Num(float64(seq))},
			Attr{Name: "tag", Val: filter.Str("gold")},
		),
		Payload: []byte("payload-bytes"),
	}
}

// TestDecodeMessageIntoMatchesDecodeMessage pins the zero-copy decoder
// to the allocating one: same body, same decoded message.
func TestDecodeMessageIntoMatchesDecodeMessage(t *testing.T) {
	for _, m := range []*Message{
		testMessage(7),
		{ID: 1}, // minimal: no attrs, no payload
		{ID: 2, Attrs: NewAttrSet(Attr{Name: "s", Val: filter.Str("x")})},
	} {
		body, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeMessage(body)
		if err != nil {
			t.Fatal(err)
		}
		var d Decoder
		got := GetMessage()
		fb := GetFrameBuf()
		frame := append(fb.grow(0), body...)
		fb.b = frame
		took, err := d.DecodeMessageInto(got, frame, fb)
		if err != nil {
			t.Fatal(err)
		}
		if took != (len(m.Payload) > 0) {
			t.Errorf("tookFrame = %v with payload %d bytes", took, len(m.Payload))
		}
		if got.ID != want.ID || got.Publisher != want.Publisher || got.Ingress != want.Ingress ||
			got.Published != want.Published || got.Allowed != want.Allowed || got.SizeKB != want.SizeKB {
			t.Errorf("header mismatch:\n got %+v\nwant %+v", got, want)
		}
		if got.Attrs.Len() != want.Attrs.Len() ||
			(got.Attrs.Len() > 0 && !reflect.DeepEqual(got.Attrs.All(), want.Attrs.All())) {
			t.Errorf("attrs mismatch: got %v want %v", got.Attrs, want.Attrs)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("payload mismatch: got %q want %q", got.Payload, want.Payload)
		}
		got.Release()
		if !took {
			fb.Release()
		}
	}
}

// TestDecodeMessageIntoRejectsCorrupt mirrors the hostile-input guards
// of DecodeMessage on the zero-copy path.
func TestDecodeMessageIntoRejectsCorrupt(t *testing.T) {
	body, err := AppendMessage(nil, testMessage(1))
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	m := GetMessage()
	defer m.Release()
	for _, bad := range [][]byte{
		body[:len(body)-1], // truncated payload
		append(body, 0),    // trailing byte
		body[:10],          // truncated header
		{},                 // empty
	} {
		if _, err := d.DecodeMessageInto(m, bad, nil); err == nil {
			t.Errorf("corrupt body %d bytes decoded without error", len(bad))
		}
	}
}

// TestMessageRefcount exercises retain/release across a fan-out: the
// message must survive until the last reference drops, then recycle.
func TestMessageRefcount(t *testing.T) {
	m := GetMessage()
	if !m.pooled {
		t.Fatal("GetMessage returned a non-pooled message")
	}
	m.Retain(3) // e.g. three output queues
	m.ReleaseN(2)
	m.Release() // decode reference
	if !m.pooled {
		t.Fatal("message released while a reference remains")
	}
	m.Release() // last queue reference
	if m.pooled {
		t.Fatal("last release did not recycle the message")
	}
	// Non-pooled messages ignore the whole protocol.
	plain := testMessage(1)
	plain.Retain(5)
	plain.Release()
	plain.ReleaseN(4)
	if plain.ID != MakeID(3, 1) {
		t.Fatal("release mutated a non-pooled message")
	}
}

// TestFrameReaderRoundTrip pushes a burst of frames through a TCP pair
// and reads them back with the pooled reader.
func TestFrameReaderRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	const frames = 17
	go func() {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		var buf []byte
		for i := 0; i < frames; i++ {
			buf, err = AppendMessageFrame(buf[:0], testMessage(uint32(i)))
			if err != nil {
				done <- err
				return
			}
			if _, err := conn.Write(buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := NewFrameReader(conn)
	var d Decoder
	for i := 0; i < frames; i++ {
		fb := GetFrameBuf()
		ft, body, err := fr.Next(fb)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != FrameMessage {
			t.Fatalf("frame %d: type %d", i, ft)
		}
		m := GetMessage()
		took, err := d.DecodeMessageInto(m, body, fb)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.ID != MakeID(3, uint32(i)) {
			t.Fatalf("frame %d: id %d", i, m.ID)
		}
		if v, ok := m.Attrs.Attr("A2"); !ok || v.Num != float64(i) {
			t.Fatalf("frame %d: A2 = %v", i, v)
		}
		m.Release()
		if !took {
			fb.Release()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestBeginEndFrame pins the append-style frame assembly against the
// WriteFrame encoding.
func TestBeginEndFrame(t *testing.T) {
	body, err := AppendMessage(nil, testMessage(9))
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := WriteFrame(&legacy, FrameMessage, body); err != nil {
		t.Fatal(err)
	}
	framed, err := AppendMessageFrame(nil, testMessage(9))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), framed) {
		t.Fatalf("frame encodings diverge:\n%x\n%x", legacy.Bytes(), framed)
	}
	// And it must parse back through the legacy reader.
	ft, got, err := ReadFrame(bytes.NewReader(framed))
	if err != nil || ft != FrameMessage || !bytes.Equal(got, body) {
		t.Fatalf("ReadFrame(AppendMessageFrame): ft=%d err=%v", ft, err)
	}
}

// TestDecoderSteadyStateAllocs verifies the headline property: after
// warm-up, decoding a message costs zero allocations.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	body, err := AppendMessage(nil, testMessage(3))
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	decodeOne := func() {
		m := GetMessage()
		fb := GetFrameBuf()
		frame := fb.grow(len(body))
		copy(frame, body)
		took, err := d.DecodeMessageInto(m, frame, fb)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
		if !took {
			fb.Release()
		}
	}
	for i := 0; i < 100; i++ { // warm pools and intern table
		decodeOne()
	}
	// Under -race the decodes still run; only the count is left unjudged,
	// since the race runtime makes sync.Pool drop objects.
	if avg := testing.AllocsPerRun(200, decodeOne); avg > 0 && !raceEnabled {
		t.Errorf("steady-state decode allocates %.2f objects/op, want 0", avg)
	}
}

// TestEndFrameBounds covers the error paths of the patching encoder.
func TestEndFrameBounds(t *testing.T) {
	if err := EndFrame([]byte{1, 2}, 0); err == nil {
		t.Error("EndFrame on a short buffer must fail")
	}
	buf := BeginFrame(nil, FrameMessage)
	if err := EndFrame(buf, 0); err != nil {
		t.Errorf("empty body should frame: %v", err)
	}
	if n := len(buf); n != frameHdrLen {
		t.Errorf("header length = %d", n)
	}
	if fmt.Sprintf("%x", buf[:2]) != "bd75" {
		t.Errorf("magic = %x", buf[:2])
	}
}
