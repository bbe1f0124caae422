package msg

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"bdps/internal/filter"
)

// slabMessage is message i of a varied stream: 0–4 attributes, a string
// among them from the third on, and payloads from none to over a
// quarter of the slab's chunk.
func slabMessage(i int) *Message {
	m := testMessage(uint32(i))
	m.Attrs = AttrSet{}
	for a := 0; a < i%5; a++ {
		m.Attrs.Set(fmt.Sprintf("A%d", a), filter.Num(float64(i*10+a)))
	}
	if i%5 >= 3 {
		m.Attrs.Set("sym", filter.Str(fmt.Sprint("s", i)))
	}
	m.Payload = bytes.Repeat([]byte{byte(i)}, []int{0, 16, 300, slabPayload / 4, slabPayload/4 + 1, 7}[i%6])
	return m
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSlabMessagesAreIndependent: forty messages decoded from one slab
// (past the end of each of its arrays), then each grown by a new
// attribute and an appended payload byte in turn, must leave every
// other message byte-identical: no window is shared.
func TestSlabMessagesAreIndependent(t *testing.T) {
	const n = 40
	var (
		d    Decoder
		s    Slab
		ms   []*Message
		want [][]byte
	)
	for i := 0; i < n; i++ {
		body := mustEncode(t, slabMessage(i))
		m, err := d.DecodeSlab(&s, body)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustEncode(t, m); !bytes.Equal(got, body) {
			t.Fatalf("message %d decodes to\n%x, want\n%x", i, got, body)
		}
		clear(body) // the slab copied what it keeps
		ms, want = append(ms, m), append(want, mustEncode(t, m))
	}
	for i, m := range ms {
		m.Attrs.Set(fmt.Sprint("new", i), filter.Num(-1))
		m.Payload = append(m.Payload, 0xEE)
		want[i] = mustEncode(t, m)
		for j, o := range ms {
			if got := mustEncode(t, o); !bytes.Equal(got, want[j]) {
				t.Fatalf("growing message %d changed message %d:\n%x\nwant\n%x", i, j, got, want[j])
			}
		}
	}
}

// TestSlabFailedDecodeTakesNothing: a body that fails to decode part
// way through its attributes takes no message from the slab, and the
// next message carries nothing of it.
func TestSlabFailedDecodeTakesNothing(t *testing.T) {
	var d Decoder
	var s Slab
	if _, err := d.DecodeSlab(&s, mustEncode(t, slabMessage(4))); err != nil {
		t.Fatal(err)
	}
	left := len(s.msgs)
	full := mustEncode(t, slabMessage(9)) // four attributes and a payload
	for _, bad := range [][]byte{full[:60], full[:len(full)-1], append(full, 0), {}} {
		if m, err := d.DecodeSlab(&s, bad); err == nil || m != nil {
			t.Fatalf("a %d-byte corrupt body decoded: %v", len(bad), m)
		}
		if len(s.msgs) != left {
			t.Fatalf("a failed decode took a message: %d left, want %d", len(s.msgs), left)
		}
	}
	body := mustEncode(t, &Message{ID: 5, Attrs: NewAttrSet(Attr{Name: "Z", Val: filter.Num(1)})})
	m, err := d.DecodeSlab(&s, body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	if m.Attrs.Len() != 1 || m.Payload != nil || !bytes.Equal(mustEncode(t, m), mustEncode(t, want)) {
		t.Fatalf("the message after a failed decode is %v %v %q, want %v %v %q",
			m, m.Attrs, m.Payload, want, want.Attrs, want.Payload)
	}
}

// TestSlabOversizedPayload: a payload over a quarter of the chunk gets
// its own allocation and leaves the chunk as it was; one of a quarter
// is carved from it.
func TestSlabOversizedPayload(t *testing.T) {
	var d Decoder
	var s Slab
	decode := func(size int) *Message {
		t.Helper()
		m, err := d.DecodeSlab(&s, mustEncode(t, &Message{ID: 1, Payload: make([]byte, size)}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	decode(16)
	left := len(s.payload)
	if m := decode(slabPayload/4 + 1); len(m.Payload) != slabPayload/4+1 || len(s.payload) != left {
		t.Fatalf("an oversized payload took %d bytes of the chunk", left-len(s.payload))
	}
	if m := decode(slabPayload / 4); cap(m.Payload) != slabPayload/4 || len(s.payload) != left-slabPayload/4 {
		t.Fatalf("a quarter-chunk payload took %d bytes of the chunk, want %d", left-len(s.payload), slabPayload/4)
	}
}

// TestSlabReleaseIsNoop: a slab message is not pooled; Retain, Release
// and ReleaseN leave it as it was.
func TestSlabReleaseIsNoop(t *testing.T) {
	var d Decoder
	var s Slab
	body := mustEncode(t, slabMessage(3))
	m, err := d.DecodeSlab(&s, body)
	if err != nil {
		t.Fatal(err)
	}
	m.Retain(2)
	m.Release()
	m.Release()
	m.ReleaseN(3)
	if m.pooled || m.refs != 0 || !bytes.Equal(mustEncode(t, m), body) {
		t.Fatalf("Release changed a slab message: pooled %v refs %d %v", m.pooled, m.refs, m)
	}
}

// TestSlabHoldsUnder8KiB pins the retention bound a subscriber states:
// a slab with all three arrays allocated holds at most 8 KiB of heap,
// measured over many slabs so that the test's own garbage does not show.
func TestSlabHoldsUnder8KiB(t *testing.T) {
	const n = 256
	var d Decoder
	body := mustEncode(t, slabMessage(1)) // attributes and a payload
	if _, err := d.DecodeSlab(new(Slab), body); err != nil {
		t.Fatal(err) // fills the intern table
	}
	slabs := make([]Slab, n)
	before := heapInUse()
	for i := range slabs {
		if _, err := d.DecodeSlab(&slabs[i], body); err != nil {
			t.Fatal(err)
		}
	}
	held := (int64(heapInUse()) - int64(before)) / n
	runtime.KeepAlive(slabs)
	t.Logf("a slab holds %d bytes", held)
	if held > 8<<10 {
		t.Errorf("a slab holds %d bytes of heap, want ≤ 8 KiB", held)
	}
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSlabDecodeAllocs: on the paper's two-attribute messages with a
// 16-byte payload, a slab decode costs an eighth of an allocation.
func TestSlabDecodeAllocs(t *testing.T) {
	m := testMessage(1)
	m.Attrs = NewAttrSet(Attr{Name: "A1", Val: filter.Num(1)}, Attr{Name: "A2", Val: filter.Num(2)})
	m.Payload = make([]byte, 16)
	body := mustEncode(t, m)
	var d Decoder
	var s Slab
	decode := func() {
		if _, err := d.DecodeSlab(&s, body); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if avg := testing.AllocsPerRun(4096, decode); avg > 0.15 {
		t.Errorf("a slab decode allocates %.3f objects, want ≤ 0.15", avg)
	}
}
