package filter

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Churn-oriented index tests: incremental Add, Remove, AddBatch and the
// concurrent MatchWith path must all agree with a from-scratch rebuild.

func TestIndexRemove(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("a < 5"))
	ix.Add(2, MustParse("a < 8"))
	ix.Add(3, nil)                   // wildcard
	ix.Add(4, MustParse("a != 3"))   // rest
	ix.Add(5, MustParse("s == 'x'")) // string equality

	if !ix.Remove(2) {
		t.Fatal("Remove(2) = false, want true")
	}
	if ix.Remove(2) {
		t.Fatal("second Remove(2) = true, want false")
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	got := ix.Match(iattrs("a", 4.0, "s", "x"))
	if !sameIDs(got, []int32{1, 3, 4, 5}) {
		t.Fatalf("match after Remove = %v, want [1 3 4 5]", got)
	}
	// Rest row removals.
	ix.Remove(3)
	ix.Remove(4)
	got = ix.Match(iattrs("a", 4.0, "s", "x"))
	if !sameIDs(got, []int32{1, 5}) {
		t.Fatalf("match after rest Remove = %v, want [1 5]", got)
	}
	// Re-adding a removed id resurrects it.
	ix.Add(2, MustParse("a < 8"))
	got = ix.Match(iattrs("a", 4.0))
	if !sameIDs(got, []int32{1, 2}) {
		t.Fatalf("match after re-Add = %v, want [1 2]", got)
	}
}

func TestIndexAddBatch(t *testing.T) {
	srcs := []string{"a < 3", "a > 7", "a >= 2 && b <= 5", "s == 'k'", "true", "a != 1"}
	ids := make([]int32, len(srcs))
	filters := make([]*Filter, len(srcs))
	for i, s := range srcs {
		ids[i] = int32(i)
		filters[i] = MustParse(s)
	}
	batch := NewIndex()
	batch.AddBatch(ids, filters)
	serial := NewIndex()
	for i := range ids {
		serial.Add(ids[i], filters[i])
	}
	for _, a := range []iterMap{
		iattrs("a", 2.0, "b", 4.0, "s", "k"),
		iattrs("a", 9.0),
		iattrs("b", 1.0, "s", "z"),
	} {
		got, want := batch.Match(a), serial.Match(a)
		if !sameIDs(got, want) {
			t.Fatalf("AddBatch disagreement on %v: %v vs %v", a, got, want)
		}
	}
}

// TestIndexChurnEquivalenceRandom is the churn property test: after any
// interleaving of Add, Remove and AddBatch, the incremental index must
// match a from-scratch rebuild of the surviving population — and both
// must match direct filter evaluation.
func TestIndexChurnEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	mkFilter := func() *Filter {
		switch r.Intn(6) {
		case 0:
			return MustParse(fmt.Sprintf("A1 < %.2f && A2 < %.2f", 10*r.Float64(), 10*r.Float64()))
		case 1:
			return MustParse(fmt.Sprintf("A1 >= %.2f", 10*r.Float64()))
		case 2:
			return MustParse(fmt.Sprintf("A1 > %.2f || A2 <= %.2f", 10*r.Float64(), 10*r.Float64()))
		case 3:
			return MustParse(fmt.Sprintf("A1 != %.2f", 10*r.Float64())) // rest
		case 4:
			return nil // wildcard
		default:
			return MustParse(fmt.Sprintf("tag == 'v%d' && A1 < %.2f", r.Intn(3), 10*r.Float64()))
		}
	}
	for trial := 0; trial < 30; trial++ {
		ix := NewIndex()
		live := map[int32]*Filter{}
		nextID := int32(0)
		for op := 0; op < 400; op++ {
			switch k := r.Intn(10); {
			case k < 5: // Add
				f := mkFilter()
				ix.Add(nextID, f)
				live[nextID] = f
				nextID++
			case k < 8: // Remove a random live id (or a missing one)
				if len(live) == 0 || k == 7 {
					ix.Remove(nextID + 1000) // no-op
					continue
				}
				for id := range live {
					ix.Remove(id)
					delete(live, id)
					break
				}
			default: // AddBatch of a few
				n := 1 + r.Intn(5)
				ids := make([]int32, n)
				fs := make([]*Filter, n)
				for i := 0; i < n; i++ {
					ids[i] = nextID
					fs[i] = mkFilter()
					live[nextID] = fs[i]
					nextID++
				}
				ix.AddBatch(ids, fs)
			}
		}
		// Rebuild from scratch and compare on random messages.
		rebuilt := NewIndex()
		for id, f := range live {
			rebuilt.Add(id, f)
		}
		for m := 0; m < 20; m++ {
			a := iattrs("A1", 10*r.Float64(), "A2", 10*r.Float64(), "tag", fmt.Sprintf("v%d", r.Intn(3)))
			got := append([]int32(nil), ix.Match(a)...)
			want := rebuilt.Match(a)
			if !sameIDs(got, want) {
				t.Fatalf("trial %d: incremental %v != rebuilt %v", trial, got, want)
			}
			gotSet := make(map[int32]bool, len(got))
			for _, id := range got {
				gotSet[id] = true
			}
			for id, f := range live {
				if f.Match(a) != gotSet[id] {
					t.Fatalf("trial %d: id %d (%s): direct=%v index=%v",
						trial, id, f.String(), f.Match(a), gotSet[id])
				}
			}
		}
	}
}

// TestIndexTouchedListsOnly pins the churn fix the rewrite keeps
// visible: only the width class an Add actually lands in is ever merged
// (the old implementation re-sorted every list on every Add), and rest
// rows touch no class.
func TestIndexTouchedListsOnly(t *testing.T) {
	ix := NewIndex()
	// Seed a class on attribute "b" and force it fully merged.
	for i := 0; i < 40; i++ {
		ix.Add(int32(i), MustParse(fmt.Sprintf("b > %d && b < %d.5", i, i)))
	}
	ix.Flush()
	b := ix.iv["b"]
	if len(b) != 1 || len(b[0].tailBounds) != 0 {
		t.Fatalf("b has %d classes after Flush, want 1 with an empty tail", len(b))
	}
	merges := ix.merges

	// Wildcard, != and one-sided adds: rest rows, no merges anywhere.
	ix.Add(1000, nil)
	ix.Add(1001, MustParse("a != 3"))
	ix.Add(1002, MustParse("a < 3"))
	if ix.merges != merges || len(ix.restRows) != 3 {
		t.Fatalf("rest adds caused %d merges and %d rest rows", ix.merges-merges, len(ix.restRows))
	}

	// A burst of adds on attribute "a" may merge a's class but must leave
	// b's run untouched.
	bLen := len(b[0].bounds)
	for i := 0; i < 100; i++ {
		ix.Add(int32(2000+i), MustParse(fmt.Sprintf("a > %d && a < %d.5", i, i)))
	}
	if got := len(b[0].bounds); got != bLen {
		t.Fatalf("adds on 'a' modified 'b' run: %d -> %d", bLen, got)
	}
	if got := len(b[0].tailBounds); got != 0 {
		t.Fatalf("adds on 'a' grew 'b' tail: %d", got)
	}
	if ix.merges == merges {
		t.Fatal("100 adds on one attribute never merged its tail (threshold broken?)")
	}
}

// TestIndexMatchWithConcurrent runs many matchers with private scratch
// against one shared index — the live read loops' read-lock pattern
// — and checks every matcher sees the identical result set. Run with
// -race this also proves MatchWith never writes index state.
func TestIndexMatchWithConcurrent(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 200; i++ {
		ix.Add(int32(i), MustParse(fmt.Sprintf("A1 < %d && A2 < %d", i%20, (i*7)%20)))
	}
	// Conjunctions posted under an access predicate evaluate their filter
	// against the scratch's resolved message: that state is per matcher too.
	for i := 200; i < 400; i++ {
		ix.Add(int32(i), MustParse(fmt.Sprintf("A1 > %d && A1 < %d.5 && A2 < %d", i%10, i%10+1, (i*7)%20)))
		ix.Add(int32(i+200), MustParse(fmt.Sprintf("A1 == %d && A2 != %d", i%10, i%7)))
	}
	want := append([]int32(nil), ix.Match(iattrs("A1", 5.0, "A2", 5.0))...)
	if len(want) < 60 {
		t.Fatalf("only %d ids match: the access-posted filters are not exercised", len(want))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s MatchScratch
			for k := 0; k < 500; k++ {
				got := ix.MatchWith(&s, iattrs("A1", 5.0, "A2", 5.0))
				if !sameIDs(got, want) {
					errs <- fmt.Errorf("concurrent match %v != %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIndexRemoveCompacts checks that heavy removal triggers the
// tombstone sweep (dead conjunction count returns to zero) and matching
// stays correct through it, and that the rest scan sheds its killed
// rows the same way.
func TestIndexRemoveCompacts(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 500; i++ {
		ix.Add(int32(i), MustParse(fmt.Sprintf("A1 > %d && A1 < 1000", i)))
		ix.Add(int32(1000+i), MustParse(fmt.Sprintf("A1 < %d", i)))
	}
	for i := 0; i < 400; i++ {
		ix.Remove(int32(i))
		ix.Remove(int32(1000 + i))
	}
	// Compaction triggers whenever dead conjunctions outnumber live ones
	// (past a floor of 64); only a sub-threshold residual may remain.
	if ix.deadConjs > 64 && ix.deadConjs > ix.liveConjs {
		t.Fatalf("deadConjs = %d (live %d) after removing 400 of 500: compaction never ran",
			ix.deadConjs, ix.liveConjs)
	}
	if len(ix.conjs) > 2*ix.liveConjs+64 {
		t.Fatalf("conjs slab %d for %d live: tombstones not being swept", len(ix.conjs), ix.liveConjs)
	}
	if len(ix.restRows) > 2*(len(ix.restRows)-ix.deadRest) {
		t.Fatalf("rest holds %d rows for %d live: killed rows not being swept", len(ix.restRows), len(ix.restRows)-ix.deadRest)
	}
	got := ix.Match(iattrs("A1", 450.0))
	var want []int32
	for i := int32(400); i < 450; i++ {
		want = append(want, i)
	}
	for i := int32(1451); i < 1500; i++ {
		want = append(want, i)
	}
	if !sameIDs(got, want) {
		t.Fatalf("post-compaction match returned %d ids, want %d", len(got), len(want))
	}
}
