package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/vtime"
)

func testEntry(id msg.SubID, next msg.NodeID) Entry {
	return Entry{
		Sub: &msg.Subscription{
			ID: id, Edge: 4, Deadline: 10 * vtime.Second, Price: 2.5,
			Filter: filter.MustParse(fmt.Sprintf("A1 < %d", id+1)),
		},
		Source: 0, Next: next, Hops: 2, PathID: 0,
		RateMean: 50, RateSigma: 5, Relaxed: 0,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Error("fresh store not empty")
	}
	if err := s.SetEpoch(3); err != nil {
		t.Fatal(err)
	}
	for i := msg.SubID(0); i < 10; i++ {
		if err := s.AppendEntry(testEntry(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendEntry(testEntry(3, msg.None)); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveSub(7); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.State()
	if st.Epoch != 3 {
		t.Errorf("epoch = %d, want 3", st.Epoch)
	}
	if len(st.Entries) != 10 { // 11 appended, sub 7's one entry removed
		t.Fatalf("entries = %d, want 10", len(st.Entries))
	}
	for _, e := range st.Entries {
		if e.Sub.ID == 7 {
			t.Error("removed sub 7 survived replay")
		}
	}
	// Local entry round-trips msg.None through the uint32 encoding.
	last := st.Entries[len(st.Entries)-1]
	if last.Sub.ID != 3 || last.Next != msg.None {
		t.Errorf("local entry = sub %d next %d, want sub 3 next %d", last.Sub.ID, last.Next, msg.None)
	}
	if e := st.Entries[0]; e.RateMean != 50 || e.RateSigma != 5 || e.Hops != 2 {
		t.Errorf("entry stats lost: %+v", e)
	}
}

func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEpoch(1); err != nil {
		t.Fatal(err)
	}
	for i := msg.SubID(0); i < 50; i++ {
		if err := s.AppendEntry(testEntry(i, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveSub(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 0 {
		t.Errorf("wal %d bytes after checkpoint, want 0", len(wal))
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.State(); st.Epoch != 1 || len(st.Entries) != 0 {
		t.Errorf("state after compaction = epoch %d, %d entries; want 1, 0", st.Epoch, len(st.Entries))
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.CompactEvery = 8
	for i := msg.SubID(0); i < 20; i++ {
		if err := s.AppendEntry(testEntry(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// 20 appends with CompactEvery=8: checkpoints after 8 and 16, so the
	// log holds the 4-record tail.
	if n := countRecords(t, wal); n != 4 {
		t.Errorf("wal holds %d records, want 4", n)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.State().Entries); got != 20 {
		t.Errorf("entries after auto-compaction = %d, want 20", got)
	}
}

func countRecords(t *testing.T, buf []byte) int {
	t.Helper()
	n, off := 0, 0
	for {
		rn, _, _ := nextRecord(buf[off:])
		if rn == 0 {
			return n
		}
		off += rn
		n++
	}
}

// TestTornTailTruncation corrupts or truncates the log at every offset
// and proves recovery: Open never fails, never panics, and recovers a
// prefix of the appended records — then truncates the file so a second
// Open sees a clean log.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := msg.SubID(0); i < 8; i++ {
		if err := s.AppendEntry(testEntry(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := len(r.State().Entries)
		r.Close()
		// Entries recover in order: a prefix of the log is a prefix of
		// the entries, and the recovered count never exceeds the cut.
		var want State
		want.Epoch = 0
		n, err := Replay(full[:cut], &want)
		if err != nil || n > cut {
			t.Fatalf("cut %d: replay consumed %d bytes, err %v", cut, n, err)
		}
		if got != len(want.Entries) {
			t.Fatalf("cut %d: recovered %d entries, replay says %d", cut, got, len(want.Entries))
		}
		for i, e := range want.Entries {
			if e.Sub.ID != msg.SubID(i) {
				t.Fatalf("cut %d: entry %d is sub %d (not a prefix)", cut, i, e.Sub.ID)
			}
		}
		// Open truncated the torn tail: the file is now fully valid.
		after, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		var again State
		if consumed, err := Replay(after, &again); err != nil || consumed != len(after) {
			t.Fatalf("cut %d: post-recovery log still torn (%d of %d bytes valid, err %v)",
				cut, consumed, len(after), err)
		}
	}
}

// v1EntryRecord hand-builds an entry record as the version-1 format
// wrote it: record type 0x02, and a subscription body whose filter is
// its source text.
func v1EntryRecord(dst []byte, id msg.SubID) []byte {
	var p []byte
	p = binary.BigEndian.AppendUint32(p, 0) // source
	p = binary.BigEndian.AppendUint32(p, 2) // next
	p = binary.BigEndian.AppendUint32(p, 2) // hops
	p = binary.BigEndian.AppendUint32(p, 0) // path id
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(50))
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(5))
	p = binary.BigEndian.AppendUint64(p, 0) // relaxed
	p = binary.BigEndian.AppendUint32(p, uint32(id))
	p = binary.BigEndian.AppendUint32(p, 4) // edge
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(10*vtime.Second))
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(2.5))
	src := "A1 < 5 && A2 < 3"
	p = binary.BigEndian.AppendUint16(p, uint16(len(src)))
	p = append(p, src...)
	return appendRecord(dst, 0x02, p)
}

// TestOpenRefusesVersion1Store: a store holding a version-1 entry
// record, in its log or its snapshot, is not a torn one — Open fails
// naming the old format, and leaves every file as it was.
func TestOpenRefusesVersion1Store(t *testing.T) {
	var epoch []byte
	epoch = appendRecord(epoch, recEpoch, []byte{0, 0, 0, 3})
	for _, file := range []string{walName, snapName} {
		dir := t.TempDir()
		content := v1EntryRecord(bytes.Clone(epoch), 7)
		content = appendRecord(content, recUnsub, []byte{0, 0, 0, 7})
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("%s: Open err %v, want ErrOldFormat", file, err)
		}
		after, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(after, content) {
			t.Errorf("%s: Open touched the store (err %v)", file, err)
		}
		if names, _ := os.ReadDir(dir); len(names) != 1 {
			t.Errorf("%s: Open left %d files, want the one it found", file, len(names))
		}
	}
}

// TestBitFlipStopsReplay flips one byte mid-log: replay must stop at or
// before the flipped record and keep everything ahead of it.
func TestBitFlipStopsReplay(t *testing.T) {
	var buf []byte
	for i := msg.SubID(0); i < 8; i++ {
		payload, err := encodeEntry(nil, testEntry(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		buf = appendRecord(buf, recEntry, payload)
	}
	recLen := len(buf) / 8
	for off := 0; off < len(buf); off += 7 {
		mut := bytes.Clone(buf)
		mut[off] ^= 0xA5
		var st State
		if _, err := Replay(mut, &st); err != nil {
			t.Fatalf("flip at %d: %v", off, err)
		}
		// Records ahead of the flipped one always survive.
		if flipped := off / recLen; len(st.Entries) < flipped {
			t.Errorf("flip at %d: recovered %d entries, want ≥ %d", off, len(st.Entries), flipped)
		}
		for i, e := range st.Entries[:min(len(st.Entries), off/recLen)] {
			if e.Sub.ID != msg.SubID(i) {
				t.Errorf("flip at %d: entry %d is sub %d", off, i, e.Sub.ID)
			}
		}
	}
}

// FuzzReplay throws arbitrary bytes at the log decoder: it must never
// panic and must always report a consumed length within bounds that
// itself replays to the same state (decode determinism).
func FuzzReplay(f *testing.F) {
	var seed []byte
	seed = appendRecord(seed, recEpoch, []byte{0, 0, 0, 7})
	payload, err := encodeEntry(nil, testEntry(1, 2))
	if err != nil {
		f.Fatal(err)
	}
	seed = appendRecord(seed, recEntry, payload)
	seed = appendRecord(seed, recUnsub, []byte{0, 0, 0, 1})
	seed = appendRecord(seed, recMark, []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add(v1EntryRecord(seed, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		n, err := Replay(data, &st)
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil && !errors.Is(err, ErrOldFormat) {
			t.Fatalf("replay error %v, want nil or ErrOldFormat", err)
		}
		var st2 State
		if m, err := Replay(data[:n], &st2); m != n || err != nil {
			t.Fatalf("replay of its own prefix consumed %d (err %v), want %d", m, err, n)
		}
		if len(st2.Entries) != len(st.Entries) || st2.Epoch != st.Epoch {
			t.Fatal("prefix replay diverged from full replay")
		}
	})
}

func BenchmarkWALAppend(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.CompactEvery = 1 << 30 // isolate the append path
	e := testEntry(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AppendEntry(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogReplay(b *testing.B) {
	var buf []byte
	for i := msg.SubID(0); i < 1000; i++ {
		payload, err := encodeEntry(nil, testEntry(i, 2))
		if err != nil {
			b.Fatal(err)
		}
		buf = appendRecord(buf, recEntry, payload)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st State
		if n, err := Replay(buf, &st); err != nil || n != len(buf) {
			b.Fatal("replay stopped early")
		}
	}
}
