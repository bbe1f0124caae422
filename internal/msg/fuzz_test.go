package msg

import (
	"bytes"
	"math"
	"testing"

	"bdps/internal/filter"
	"bdps/internal/vtime"
)

// FuzzCodec throws arbitrary bytes at every wire-protocol decoder: a
// hostile TCP peer must never be able to panic a live node, malformed
// frames must be rejected with an error, and anything that decodes must
// re-encode canonically (round-trip stability). Seeded with valid
// encodings so the fuzzer starts from the interesting region; CI runs it
// for 30 seconds on top of the stored corpus.
func FuzzCodec(f *testing.F) {
	m := &Message{
		ID:        MakeID(3, 7),
		Publisher: 3,
		Ingress:   1,
		Published: 123456.5,
		Allowed:   20 * vtime.Second,
		SizeKB:    50,
		Attrs: NewAttrSet(
			Attr{Name: "A1", Val: filter.Num(4.25)},
			Attr{Name: "tag", Val: filter.Str("gold")},
		),
		Payload: []byte("payload"),
	}
	mBody, err := AppendMessage(nil, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mBody)

	// One subscription per node and operand kind of the binary filter:
	// wildcard, a predicate, a conjunction past a program's seven, nested
	// and/or, !=, strings, and NaN, ±Inf and −0 operands.
	for i, flt := range []*filter.Filter{
		filter.MustParse("A1 < 5 && A2 < 3"),
		{},
		filter.MustParse("A1 < 5"),
		filter.MustParse("a < 1 && b <= 2 && c > 3 && d >= 4 && e == 5 && f < 6 && g < 7 && h < 8"),
		filter.MustParse("(A1 < 1 || A2 > 2) && (A3 < 3 || (A4 > 4 && A5 < 5)) && A6 == 6"),
		filter.MustParse(`A1 != 3 && sym == "IBM" && venue != 'x'`),
		filter.NewPred("A1", filter.LE, filter.Num(math.NaN())),
		filter.And(filter.Gt("A1", math.Inf(-1)), filter.Lt("A2", math.Inf(1))),
		filter.And(filter.Gt("A1", math.Copysign(0, -1)), filter.Lt("A1", 1)),
	} {
		sub := &Subscription{ID: SubID(9 + i), Edge: 2, Deadline: 10 * vtime.Second, Price: 3, Filter: flt}
		sBody, err := AppendSubscription(nil, sub)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sBody)
	}

	var framed bytes.Buffer
	if err := WriteFrame(&framed, FrameMessage, mBody); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add(AppendHello(nil, RoleBroker, 4, 0))
	f.Add(AppendHello(nil, RoleBroker, 4, 2))
	f.Add(AppendResume(nil, 9, 41))
	f.Add(AppendUnsubscribe(nil, 9))
	// Link frames: a full data frame (seq/base header wrapping a message
	// body), a bare data header, a frame of the reserved type 0x03 (readers
	// must still frame it to skip it), and two malformed variants — base
	// above seq, and a truncated header.
	df, err := AppendDataFrame(nil, 7, 5, 1, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(df)
	f.Add(append(AppendDataHeader(nil, 7, 5, 1), mBody...))
	f.Add([]byte{0xBD, 0x75, wireVersion, 0x03, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 42})
	f.Add(AppendDataHeader(nil, 3, 9, 0))
	f.Add(AppendDataHeader(nil, 7, 5, 0)[:DataHdrLen-1])
	// A header claiming a huge body: must be refused, not allocated.
	f.Add([]byte{0xBD, 0x75, wireVersion, FrameMessage, 0xFF, 0xFF, 0xFF, 0xFF})

	// One slab and decoder serve every input, as one subscriber's read
	// loop serves its connection; prev is the last message carved from
	// it, which no later decode may change.
	var (
		sd       Decoder
		slab     Slab
		prev     *Message
		prevBody []byte
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The zero-copy and slab decoders must accept exactly what the
		// allocating one accepts, and produce the same canonical
		// re-encoding.
		var d Decoder
		pm := GetMessage()
		_, zerr := d.DecodeMessageInto(pm, data, nil)
		sm, serr := sd.DecodeSlab(&slab, data)
		dm0, merr := DecodeMessage(data)
		if (zerr == nil) != (merr == nil) || (serr == nil) != (merr == nil) {
			t.Fatalf("decoders disagree: DecodeMessageInto=%v DecodeSlab=%v DecodeMessage=%v", zerr, serr, merr)
		}
		if merr == nil {
			ma, err := AppendMessage(nil, dm0)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []*Message{pm, sm} {
				if za, err := AppendMessage(nil, m); err != nil || !bytes.Equal(za, ma) {
					t.Fatalf("zero-copy or slab decode re-encodes differently:\n%x\n%x", za, ma)
				}
			}
			if cap(sm.Payload) != len(sm.Payload) {
				t.Fatalf("slab payload window has %d bytes of spare capacity", cap(sm.Payload)-len(sm.Payload))
			}
		}
		pm.Release()
		if prev != nil {
			if pa, err := AppendMessage(nil, prev); err != nil || !bytes.Equal(pa, prevBody) {
				t.Fatalf("a later slab decode changed an earlier message:\n%x\n%x", pa, prevBody)
			}
		}
		if serr == nil {
			prev = sm
			prevBody, _ = AppendMessage(nil, sm)
		}

		// Message: decode, and on success require a stable canonical
		// re-encoding (decode∘encode must be idempotent).
		if dm, err := DecodeMessage(data); err == nil {
			enc, err := AppendMessage(nil, dm)
			if err != nil {
				t.Fatalf("decoded message does not re-encode: %v", err)
			}
			dm2, err := DecodeMessage(enc)
			if err != nil {
				t.Fatalf("re-encoded message does not decode: %v", err)
			}
			enc2, err := AppendMessage(nil, dm2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encoding is not canonical:\n%x\n%x", enc, enc2)
			}
		}
		// Subscription: whatever decodes re-encodes to the very bytes it
		// came from — the binary filter has one encoding per tree.
		if ds, err := DecodeSubscription(data); err == nil {
			enc, err := AppendSubscription(nil, ds)
			if err != nil {
				t.Fatalf("decoded subscription does not re-encode: %v", err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("subscription re-encodes differently:\n%x\n%x", enc, data)
			}
		}
		// The small decoders must simply never panic.
		_, _, _, _ = DecodeHello(data)
		_, _, _ = DecodeHeartbeat(data)
		_, _, _ = DecodeResume(data)
		_, _ = DecodeUnsubscribe(data)
		// Data frame body: the header must round-trip bit for bit and obey
		// its invariant (base never above seq); the wrapped message body is
		// itself decoder-safe input.
		if seq, base, epoch, msgBody, err := DecodeDataHeader(data); err == nil {
			if base > seq {
				t.Fatalf("decoder accepted base %d > seq %d", base, seq)
			}
			enc := append(AppendDataHeader(nil, seq, base, epoch), msgBody...)
			if !bytes.Equal(enc, data) {
				t.Fatalf("data header re-encodes differently:\n%x\n%x", enc, data)
			}
			_, _ = DecodeMessage(msgBody)
		}
		// Framing: a reader over hostile bytes must error or terminate,
		// and a recovered body must itself be safe to decode. The pooled
		// FrameReader must agree with the allocating ReadFrame.
		ft0, body0, err0 := ReadFrame(bytes.NewReader(data))
		fb := GetFrameBuf()
		ft1, body1, err1 := NewFrameReader(bytes.NewReader(data)).Next(fb)
		if (err0 == nil) != (err1 == nil) {
			t.Fatalf("frame readers disagree: ReadFrame=%v FrameReader=%v", err0, err1)
		}
		if err0 == nil {
			if ft0 != ft1 || !bytes.Equal(body0, body1) {
				t.Fatalf("frame readers decoded different frames")
			}
			switch ft0 {
			case FrameMessage:
				_, _ = DecodeMessage(body0)
			case FrameSubscribe:
				_, _ = DecodeSubscription(body0)
			}
		}
		fb.Release()
	})
}

// TestCodecRejectsOversizedFrameHeader pins the allocation guard the
// fuzz seed above probes: a frame header claiming more than MaxBodyLen
// must be refused before any body allocation.
func TestCodecRejectsOversizedFrameHeader(t *testing.T) {
	hdr := []byte{0xBD, 0x75, wireVersion, FrameMessage, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("32 GiB-claiming frame header must be rejected")
	}
}
