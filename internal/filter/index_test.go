package filter

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// iterMap adapts AttrMap to Iterable with deterministic order.
type iterMap struct{ AttrMap }

func (m iterMap) Each(fn func(string, Value)) {
	names := make([]string, 0, len(m.AttrMap))
	for n := range m.AttrMap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fn(n, m.AttrMap[n])
	}
}

func iattrs(kv ...any) iterMap { return iterMap{attrs(kv...)} }

func TestIndexBasicConjunction(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("A1 < 5 && A2 < 3"))
	ix.Add(2, MustParse("A1 < 8"))
	ix.Add(3, MustParse("A1 > 6"))

	got := ix.Match(iattrs("A1", 4.0, "A2", 2.0))
	if !sameIDs(got, []int32{1, 2}) {
		t.Errorf("match = %v, want [1 2]", got)
	}
	got = ix.Match(iattrs("A1", 7.0, "A2", 2.0))
	if !sameIDs(got, []int32{2, 3}) {
		t.Errorf("match = %v, want [2 3]", got)
	}
	got = ix.Match(iattrs("A1", 9.0))
	if !sameIDs(got, []int32{3}) {
		t.Errorf("match = %v, want [3]", got)
	}
}

func TestIndexAllOperators(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("x < 5"))
	ix.Add(2, MustParse("x <= 5"))
	ix.Add(3, MustParse("x > 5"))
	ix.Add(4, MustParse("x >= 5"))
	ix.Add(5, MustParse("x == 5"))

	got := ix.Match(iattrs("x", 5.0))
	if !sameIDs(got, []int32{2, 4, 5}) {
		t.Errorf("x=5: %v, want [2 4 5]", got)
	}
	got = ix.Match(iattrs("x", 4.0))
	if !sameIDs(got, []int32{1, 2}) {
		t.Errorf("x=4: %v, want [1 2]", got)
	}
	got = ix.Match(iattrs("x", 6.0))
	if !sameIDs(got, []int32{3, 4}) {
		t.Errorf("x=6: %v, want [3 4]", got)
	}
}

func TestIndexStringEquality(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("tag == 'hot' && x < 5"))
	ix.Add(2, MustParse("tag == 'cold'"))
	got := ix.Match(iattrs("tag", "hot", "x", 3.0))
	if !sameIDs(got, []int32{1}) {
		t.Errorf("match = %v, want [1]", got)
	}
	if got := ix.Match(iattrs("tag", "warm", "x", 3.0)); len(got) != 0 {
		t.Errorf("match = %v, want none", got)
	}
}

func TestIndexMissingAttributeDoesNotMatch(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("A1 < 5 && A2 < 5"))
	if got := ix.Match(iattrs("A1", 1.0)); len(got) != 0 {
		t.Errorf("missing A2 must not match: %v", got)
	}
}

func TestIndexWildcard(t *testing.T) {
	ix := NewIndex()
	ix.Add(7, &Filter{})
	ix.Add(8, nil)
	got := ix.Match(iattrs("anything", 1.0))
	if !sameIDs(got, []int32{7, 8}) {
		t.Errorf("wildcards should match: %v", got)
	}
	got = ix.Match(iattrs())
	if !sameIDs(got, []int32{7, 8}) {
		t.Errorf("wildcards should match empty attrs: %v", got)
	}
}

func TestIndexDisjunction(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("a < 2 || a > 8"))
	for _, tc := range []struct {
		v    float64
		want bool
	}{{1, true}, {5, false}, {9, true}} {
		got := ix.Match(iattrs("a", tc.v))
		if (len(got) == 1) != tc.want {
			t.Errorf("a=%v: match=%v, want %v", tc.v, got, tc.want)
		}
		if len(got) > 1 {
			t.Errorf("a=%v: id emitted twice: %v", tc.v, got)
		}
	}
}

func TestIndexFallbackNE(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("a != 3"))
	ix.Add(2, MustParse("a < 10"))
	got := ix.Match(iattrs("a", 4.0))
	if !sameIDs(got, []int32{1, 2}) {
		t.Errorf("match = %v, want [1 2]", got)
	}
	got = ix.Match(iattrs("a", 3.0))
	if !sameIDs(got, []int32{2}) {
		t.Errorf("match = %v, want [2]", got)
	}
}

func TestIndexRepeatedEpochsNoBleed(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("a < 5 && b < 5"))
	// First match satisfies only a; second only b; neither must fire.
	if got := ix.Match(iattrs("a", 1.0)); len(got) != 0 {
		t.Errorf("partial 1: %v", got)
	}
	if got := ix.Match(iattrs("b", 1.0)); len(got) != 0 {
		t.Errorf("partial 2 (stale match state?): %v", got)
	}
	if got := ix.Match(iattrs("a", 1.0, "b", 1.0)); !sameIDs(got, []int32{1}) {
		t.Errorf("full: %v", got)
	}
}

func TestIndexLen(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("a < 5 || b < 2"))
	ix.Add(2, MustParse("a != 1"))
	ix.Add(2, MustParse("c < 1")) // same id again
	if ix.Len() != 2 {
		t.Errorf("Len = %d, want 2 distinct ids", ix.Len())
	}
}

// TestIndexEquivalenceQuick is the key property: the index must agree
// with direct evaluation for random paper-style filter populations.
func TestIndexEquivalenceQuick(t *testing.T) {
	prop := func(bounds [8][2]float64, msgs [8][2]float64) bool {
		norm := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 5
			}
			return math.Mod(math.Abs(x), 10)
		}
		ix := NewIndex()
		filters := make([]*Filter, len(bounds))
		for i, b := range bounds {
			filters[i] = And(Lt("A1", norm(b[0])), Lt("A2", norm(b[1])))
			ix.Add(int32(i), filters[i])
		}
		for _, mv := range msgs {
			a := iattrs("A1", norm(mv[0]), "A2", norm(mv[1]))
			got := ix.Match(a)
			gotSet := make(map[int32]bool, len(got))
			for _, id := range got {
				gotSet[id] = true
			}
			for i, f := range filters {
				if f.Match(a) != gotSet[int32(i)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIndexEquivalenceMixedOps extends the property to all operators.
func TestIndexEquivalenceMixedOps(t *testing.T) {
	srcs := []string{
		"a < 5", "a <= 5", "a > 5", "a >= 5", "a == 5", "a != 5",
		"a < 3 && b > 2", "a >= 1 && a <= 9", "(a < 2 || a > 8) && b < 5",
		"s == 'x'", "s == 'x' && a < 5", "true",
	}
	ix := NewIndex()
	filters := make([]*Filter, len(srcs))
	for i, src := range srcs {
		filters[i] = MustParse(src)
		ix.Add(int32(i), filters[i])
	}
	for _, av := range []float64{0, 1, 2, 3, 5, 5.5, 8, 9, 10} {
		for _, bv := range []float64{0, 2.5, 5, 7} {
			for _, sv := range []string{"x", "y"} {
				a := iattrs("a", av, "b", bv, "s", sv)
				got := ix.Match(a)
				gotSet := make(map[int32]bool, len(got))
				for _, id := range got {
					gotSet[id] = true
				}
				for i, f := range filters {
					if f.Match(a) != gotSet[int32(i)] {
						t.Fatalf("disagreement on %q at a=%v b=%v s=%q: index=%v direct=%v",
							srcs[i], av, bv, sv, gotSet[int32(i)], f.Match(a))
					}
				}
			}
		}
	}
}

func sameIDs(got []int32, want []int32) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]int32(nil), got...)
	w := append([]int32(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// TestIndexMatchReusesOutput pins the zero-allocation contract: Match
// returns an index-owned buffer, stable and correct across repeated
// calls (including interleaved inputs), and steady-state Match performs
// no allocations.
func TestIndexMatchReusesOutput(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("a < 5"))
	ix.Add(2, MustParse("a < 8 && b > 1"))
	ix.Add(3, nil)                   // wildcard
	ix.Add(4, MustParse("s != 'x'")) // rest row

	hit := iattrs("a", 3.0, "b", 2.0, "s", "y")
	miss := iattrs("a", 9.0, "s", "x")
	first := append([]int32(nil), ix.Match(hit)...)
	if !sameIDs(first, []int32{1, 2, 3, 4}) {
		t.Fatalf("first match = %v", first)
	}
	if got := ix.Match(miss); !sameIDs(got, []int32{3}) {
		t.Fatalf("miss match = %v", got)
	}
	again := ix.Match(hit)
	if !sameIDs(again, first) {
		t.Fatalf("repeat match = %v, want %v (deterministic & complete)", again, first)
	}
	for i := range again {
		if again[i] != first[i] {
			t.Fatalf("repeat order differs: %v vs %v", again, first)
		}
	}
	// iterMap.Each allocates (it sorts a fresh name list), so measure
	// Match's own allocations with a slice-backed attribute set.
	flat := sliceAttrs{{"a", Num(3)}, {"b", Num(2)}, {"s", Str("y")}}
	var it Iterable = &flat
	allocs := testing.AllocsPerRun(100, func() { ix.Match(it) })
	if allocs != 0 {
		t.Errorf("steady-state Match allocates %v objects per run, want 0", allocs)
	}
}

// sliceAttrs is an allocation-free Iterable for the reuse test.
type sliceAttrs []struct {
	name string
	v    Value
}

func (s *sliceAttrs) Attr(name string) (Value, bool) {
	for _, a := range *s {
		if a.name == name {
			return a.v, true
		}
	}
	return Value{}, false
}

func (s *sliceAttrs) Each(fn func(string, Value)) {
	for _, a := range *s {
		fn(a.name, a.v)
	}
}

// TestIndexSparseIDs drives the map fallback for ids outside the dense
// stamp range (negative and huge), which must behave identically.
func TestIndexSparseIDs(t *testing.T) {
	ix := NewIndex()
	ix.Add(-7, MustParse("a < 5"))
	ix.Add(1<<30, MustParse("a < 9"))
	ix.Add(-7, MustParse("b < 1")) // duplicate id, second conjunction
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
	got := ix.Match(iattrs("a", 4.0, "b", 0.0))
	if !sameIDs(got, []int32{-7, 1 << 30}) {
		t.Fatalf("sparse match = %v", got)
	}
	// -7 satisfied by both its conjunctions: emitted once.
	n := 0
	for _, id := range got {
		if id == -7 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("id -7 emitted %d times, want once", n)
	}
}
