package filter

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// Tests of the access path: conjunctions posted under one equality or
// one two-sided range and verified by their filter, beside the filters
// the index keeps as rows of its rest scan.

// TestIndexAccessEquivalenceRandom is the property the access path must
// keep: whatever subset of a conjunction is posted, the index answers
// exactly as evaluating every live filter does — through interleaved
// Add, Remove, AddBatch and forced compaction, with message values drawn
// to land on the filters' bounds.
func TestIndexAccessEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	// Every bound a filter uses joins the pool messages draw from.
	pool := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	bound := func(x float64) float64 {
		pool = append(pool, x)
		return x
	}
	num := func(x float64) Value { return Num(bound(x)) }
	lowOp := func() Op { return []Op{GT, GE}[r.Intn(2)] }
	highOp := func() Op { return []Op{LT, LE}[r.Intn(2)] }
	rng := func(attr string, lo, hi float64) *Filter {
		return And(NewPred(attr, lowOp(), num(lo)), NewPred(attr, highOp(), num(hi)))
	}
	centre := func() float64 { return math.Round(r.Float64()*2000-1000) / 100 }
	randRange := func(attr string) *Filter {
		w := math.Pow(10, float64(r.Intn(13)-6)) * (0.5 + r.Float64()) // 12 decades
		lo := centre()
		return rng(attr, lo, lo+w)
	}
	tags := []string{"x", "y", "z"}
	mkFilter := func() *Filter {
		switch r.Intn(14) {
		case 0, 1:
			return randRange("A")
		case 2: // the fanout shape: a range with a one-sided rider
			return And(randRange("A"), Lt("B", bound(centre())))
		case 3: // zero width
			x := centre()
			return And(NewPred("A", GE, num(x)), NewPred("A", LE, num(x)))
		case 4: // inverted: no value satisfies it
			x := centre()
			return rng("A", x+1, x)
		case 5: // infinite bounds leave at most one side to search
			return []*Filter{
				rng("A", math.Inf(-1), centre()),
				rng("A", centre(), math.Inf(1)),
				rng("A", math.Inf(-1), math.Inf(1)),
				rng("A", math.Inf(1), centre()),
				And(NewPred("A", GE, Num(math.Inf(1))), NewPred("A", LE, Num(math.Inf(1)))),
			}[r.Intn(5)]
		case 6: // equality with a != rider
			return And(Eq("K", num(float64(r.Intn(4)))), NewPred("A", NE, num(centre())))
		case 7: // string equality with a numeric range
			return And(Eq("tag", Str(tags[r.Intn(3)])), randRange("A"))
		case 8: // two ranges under one id
			return Or(randRange("A"), And(randRange("B"), Gt("A", bound(centre()))))
		case 9: // paper form: one-sided, a rest row
			return And(Lt("A", bound(centre())), Lt("B", bound(centre())))
		case 10: // a range with != and string-inequality riders
			return And(randRange("B"), NewPred("tag", GT, Str("x")), NewPred("A", NE, num(centre())))
		case 11: // two ranges: the narrower is the access predicate
			return And(randRange("A"), randRange("B"))
		case 12: // NaN bounds compare equal to every number
			return []*Filter{
				Eq("A", Num(math.NaN())),
				And(NewPred("A", GE, Num(math.NaN())), Lt("A", bound(centre()))),
				And(Eq("K", num(float64(r.Intn(4)))), NewPred("A", LE, Num(math.NaN()))),
			}[r.Intn(3)]
		default:
			return []*Filter{nil, MustParse("A != 3"), Eq("K", num(float64(r.Intn(4))))}[r.Intn(3)]
		}
	}
	value := func() Value {
		switch x := pool[r.Intn(len(pool))]; r.Intn(4) {
		case 0:
			return Num(x)
		case 1:
			return Num(math.Nextafter(x, math.Inf(1-2*r.Intn(2))))
		case 2:
			return Num(x + (r.Float64()-0.5)*math.Pow(10, float64(r.Intn(13)-6)))
		default:
			return Num(centre())
		}
	}

	for trial := 0; trial < 12; trial++ {
		ix := NewIndex()
		live := map[int32]*Filter{}
		nextID := int32(0)
		check := func(step int) {
			t.Helper()
			for m := 0; m < 25; m++ {
				a := iterMap{AttrMap{"A": value(), "B": value(), "K": Num(float64(r.Intn(4)))}}
				if r.Intn(3) > 0 {
					a.AttrMap["tag"] = Str(tags[r.Intn(3)])
				}
				if r.Intn(8) == 0 {
					delete(a.AttrMap, "B")
				}
				got := map[int32]bool{}
				for _, id := range ix.Match(a) {
					if got[id] {
						t.Fatalf("trial %d step %d: id %d emitted twice", trial, step, id)
					}
					got[id] = true
				}
				for id, f := range live {
					if f.Match(a) != got[id] {
						t.Fatalf("trial %d step %d: %s on %v: filter=%v index=%v",
							trial, step, f, a.AttrMap, f.Match(a), got[id])
					}
				}
				if len(got) > len(live) {
					t.Fatalf("trial %d step %d: index emitted a removed id", trial, step)
				}
			}
		}
		for step := 0; step < 600; step++ {
			switch k := r.Intn(20); {
			case k < 9:
				live[nextID] = mkFilter()
				ix.Add(nextID, live[nextID])
				nextID++
			case k < 16:
				for id := range live {
					ix.Remove(id)
					delete(live, id)
					break
				}
			case k < 19:
				n := 1 + r.Intn(6)
				ids, fs := make([]int32, n), make([]*Filter, n)
				for i := range ids {
					ids[i], fs[i] = nextID, mkFilter()
					live[nextID] = fs[i]
					nextID++
				}
				ix.AddBatch(ids, fs)
			default:
				ix.compact()
			}
			if step%40 == 0 {
				check(step)
			}
		}
		check(600)
	}
}

// TestIndexWorkFollowsAnswer pins the two properties that make a match
// cost what its answer costs: a wide range does not widen the window of
// the narrow ones (it sits in a class of its own), and a class's window
// holds at most about twice the ranges that contain the value.
func TestIndexWorkFollowsAnswer(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, w = 10_000, 0.04
	ix := NewIndex()
	los := make([]float64, n)
	for i := range los {
		los[i] = r.Float64() * (10 - w)
		ix.Add(int32(i), And(Gt("A1", los[i]), Lt("A1", los[i]+w), Lt("A2", r.Float64()*10)))
	}
	ix.Add(n, And(Gt("A1", 0), Lt("A1", 10), Lt("A2", 5)))
	ix.Flush()

	if len(ix.restRows) != 0 {
		t.Fatalf("%d range conjunctions became rest rows", len(ix.restRows))
	}
	classes := ix.iv["A1"]
	if len(classes) != 2 {
		t.Fatalf("A1 has %d width classes, want 2 (narrow, wide)", len(classes))
	}
	narrow, wide := classes[0], classes[1]
	if len(wide.bounds) != 1 || len(narrow.bounds) != n {
		t.Fatalf("classes hold %d and %d ranges, want %d and 1", len(narrow.bounds), len(wide.bounds), n)
	}
	if narrow.span < w || narrow.span > 2*w {
		t.Fatalf("narrow class spans %v for width %v", narrow.span, w)
	}
	// A candidate's range starts in [x − span, x] with span < 2w, so it
	// holds x or x − w: the window is bounded by the answer at those two
	// points (plus the two boundary values), whatever the distribution.
	sort.Float64s(los)
	holding := func(x float64) int { return sort.SearchFloat64s(los, x) - sort.SearchFloat64s(los, x-w) }
	for trial := 0; trial < 500; trial++ {
		x := r.Float64() * 10
		window := sort.SearchFloat64s(narrow.bounds, math.Nextafter(x, 11)) - sort.SearchFloat64s(narrow.bounds, x-narrow.span)
		if window > holding(x)+holding(x-w)+2 {
			t.Fatalf("x=%v: window of %d candidates; %d ranges hold x and %d hold x-w", x, window, holding(x), holding(x-w))
		}
	}

	// Every width a float64 can express — 2^-1022 (≈ 1e-308) to 2^1023
	// (≈ 1e308), and none at all — lands in one of the 81 clamped
	// classes, and still matches.
	wideIx := NewIndex()
	wideFs := []*Filter{And(NewPred("A", GE, Num(0)), NewPred("A", LE, Num(0)))}
	for e := -1022; e <= 1023; e++ {
		wideFs = append(wideFs, And(NewPred("A", GE, Num(0)), NewPred("A", LE, Num(math.Ldexp(1, e)))))
	}
	for i, f := range wideFs {
		wideIx.Add(int32(i), f)
	}
	if got := len(wideIx.iv["A"]); got != 2*ivMaxExp+1 {
		t.Fatalf("%d width classes on one attribute, want %d", got, 2*ivMaxExp+1)
	}
	for _, x := range []float64{0, 1e-300, 1e-13, 1, 3e12, 1e300} {
		want := 0
		for _, f := range wideFs {
			if f.Match(iattrs("A", x)) {
				want++
			}
		}
		if got := len(wideIx.Match(iattrs("A", x))); got != want || want == 0 {
			t.Fatalf("A=%v: index matched %d ranges, filters %d", x, got, want)
		}
	}
}

// TestIndexNaNMatchesFilter: a NaN attribute value — DecodeMessageInto
// takes any bit pattern off the wire — must get the same answer from the
// index as from Filter.Match, which follows Value.compare: NaN is neither
// below nor above a bound, so <=, >= and == hold and <, > and != do not.
func TestIndexNaNMatchesFilter(t *testing.T) {
	srcs := []string{
		"a < 5", "a <= 5", "a > 5", "a >= 5", "a == 5", "a != 5",
		"a >= 1 && a <= 2",           // closed range: holds NaN
		"a > 1 && a < 2",             // strict range: does not
		"a >= 1 && a < 2",            // half-open
		"a <= 5 && b < 3",            // rest row, NaN on one attribute
		"a == 5 && b < 3",            // equality with company
		"a >= 1 && a <= 2 && b != 7", // range with a rider
		"s == 'x' && a >= 5",         // string equality, NaN rider
		"a < 5 || a >= 7",            // disjunction
	}
	ix := NewIndex()
	filters := make([]*Filter, len(srcs))
	for i, src := range srcs {
		filters[i] = MustParse(src)
		ix.Add(int32(i), filters[i])
	}
	ix.Flush()
	for _, a := range []iterMap{
		iattrs("a", math.NaN()),
		iattrs("a", math.NaN(), "b", 1.0, "s", "x"),
		iattrs("a", math.NaN(), "b", math.NaN(), "s", "y"),
		iattrs("a", 1.5, "b", math.NaN(), "s", "x"),
	} {
		got := map[int32]bool{}
		for _, id := range ix.Match(a) {
			got[id] = true
		}
		for i, f := range filters {
			if f.Match(a) != got[int32(i)] {
				t.Errorf("%q on %v: filter=%v index=%v", srcs[i], a.AttrMap, f.Match(a), got[int32(i)])
			}
		}
	}
}

// TestMatchScratchSize: every broker's Processor embeds a MatchScratch,
// indexed table or not; past 168 bytes it crosses an allocator size
// class on each of them (sim_paper's state_heap_mb shows it).
func TestMatchScratchSize(t *testing.T) {
	if got := unsafe.Sizeof(MatchScratch{}); got > 168 {
		t.Fatalf("MatchScratch is %d bytes, want at most 168", got)
	}
}

// poisonNode stands in for a filter's expression tree once the index
// holds it: any evaluation panics.
type poisonNode struct{}

func (poisonNode) match(Attrs) bool           { panic("filter evaluated during an index match") }
func (poisonNode) str(*strings.Builder, byte) { panic("filter rendered during an index match") }
func (poisonNode) dnf() [][]Predicate         { panic("filter lowered during an index match") }

// TestIndexMatchReadsNoFilter: a conjunction posted under its access
// predicate is decided from the index's own memory — its posting and its
// residual checks — so every filter may be poisoned once added and the
// index still answers as the filters did.
func TestIndexMatchReadsNoFilter(t *testing.T) {
	srcs := []string{
		"A1 > 1 && A1 < 2 && A2 < 5",      // strict range, numeric residual
		"A1 >= 1 && A1 <= 2",              // closed range alone
		"A1 >= 1.5 && A1 < 3 && A1 > 1.5", // half-open, strictness from a tie
		"A1 > 0 && A1 < 4 && A2 != 3",     // range, != residual
		"A1 > 0 && A1 < 4 && tag < 'y'",   // range, string inequality residual
		"K == 3",                          // equality alone
		"K == 3 && A2 < 5 && A1 >= 1",     // equality, numeric residuals
		"K == 3 && tag == 'x'",            // equality, string-equality residual
		"tag == 'x'",                      // string equality alone
		"tag == 'x' && A1 > 1 && A1 <= 2", // string equality, range residual
		"tag == 'y' && tag != 'x'",        // string equality, string != residual
		"(K == 3 && A2 < 1) || (A1 > 2 && A1 < 2.5)",
	}
	filters := make([]*Filter, len(srcs))
	ix := NewIndex()
	for i, src := range srcs {
		filters[i] = MustParse(src)
		ix.Add(int32(i), filters[i])
	}
	ix.Flush()
	var msgs []iterMap
	for _, a1 := range []float64{0.5, 1, 1.5, 2, 2.2, 3, math.NaN()} {
		for _, a2 := range []float64{0, 3, 7} {
			for _, tag := range []any{"x", "y", 3.0} {
				msgs = append(msgs, iattrs("A1", a1, "A2", a2, "K", 3.0, "tag", tag))
			}
		}
	}
	want := make([][]int32, len(msgs))
	for m, a := range msgs {
		for i, f := range filters {
			if f.Match(a) {
				want[m] = append(want[m], int32(i))
			}
		}
	}
	if len(ix.restRows) != 0 {
		t.Fatalf("%d filters became rest rows", len(ix.restRows))
	}
	for _, f := range filters {
		*f = Filter{root: poisonNode{}}
	}
	var s MatchScratch
	for m, a := range msgs {
		if got := ix.MatchWith(&s, a); !sameIDs(got, want[m]) {
			t.Errorf("%v: index %v, filters %v", a.AttrMap, got, want[m])
		}
	}
}

// TestIndexBytesPerConjunction pins what the index owns per posted
// conjunction on fanout_match's shape, added one at a time as a live
// broker adds them: posting, conjunction state, residual check and the
// id's back-reference. Every broker holds one index per ingress, so
// these bytes are most of what a subscription costs a broker beside its
// filter.
func TestIndexBytesPerConjunction(t *testing.T) {
	const n = 10_000
	r := rand.New(rand.NewSource(3))
	fs := make([]*Filter, n)
	for i := range fs {
		a := r.Float64() * 9.96
		fs[i] = And(Gt("A1", a), Lt("A1", a+0.04), Lt("A2", r.Float64()*10))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := NewIndex()
	for i, f := range fs {
		ix.Add(int32(i), f)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(ix)
	runtime.KeepAlive(fs)
	t.Logf("%.1f heap bytes per conjunction", per)
	if per > 140 {
		t.Fatalf("index holds %.1f heap bytes per conjunction, want at most 140", per)
	}
}
