package filter

import (
	"math"
	"slices"
	"testing"
)

// FuzzIndexMatch is the index's differential fuzzer: the input is a
// program of Add, AddBatch, Remove, Flush, Match and churn operations
// over a small filter grammar, and every Match is checked against
// Filter.Match of each live filter — every id that should match is
// emitted, exactly once, and nothing else. A Scan runs the same program
// beside the index, one row per added filter, and every Match checks its
// rows too: the rows it decides plus the flagged rows MatchResolved
// confirms must be exactly the live rows whose filters match, in row
// order.
//
// The grammar covers strict, closed and half-open ranges, ranges and
// equalities with and without residuals (numeric, !=, string equality
// and string inequality), disjunctions, and the filters the index keeps
// as rest rows — != filters, the one-sided form and wildcards; ids
// repeat. A range posting
// carries its conjunction's first numeric residual inline and, when that
// is the whole residual, decides alone against the tombstone bitset, so
// ranges come with two residuals in either order, with a numeric
// residual on an attribute messages often carry as a string, and with a
// NaN residual bound; and an id is removed and re-added at once. Bounds
// and attribute values come from one small table — so a value often
// sits exactly on a bound, or one ulp off it — that holds NaN and both
// infinities, and the values where float32 rounding turns: numbers
// strictly between two float32s, adjacent float32s, ±MaxFloat32 and
// past it, and denormals of both widths. A churn operation adds up to
// 160 copies of a filter and removes most of them again, which drives
// the tombstone compaction.
//
//	go test -run '^$' -fuzz '^FuzzIndexMatch$' -fuzztime 30s ./internal/filter
func FuzzIndexMatch(f *testing.F) {
	for _, seed := range indexFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runIndexProgram(t, &fuzzInput{b: data})
	})
}

// Operations of an index program: the opcode byte modulo numOps.
const (
	opAdd = iota
	opAddBatch
	opRemove
	opFlush
	opMatch
	opChurn
	opReAdd // Remove an id, then Add it again
	numOps
)

// Filter productions: the production byte modulo numProds.
const (
	prodStrict       = iota // a > lo && a < hi
	prodClosed              // a >= lo && a <= hi
	prodHalfOpen            // one bound strict, the other closed
	prodRangeRes            // a range and a residual predicate
	prodEq                  // k == v
	prodEqRes               // k == v and two residual predicates
	prodStrEqRes            // s == 'x' and a residual predicate
	prodEqStrRes            // k == v && s == 'x'
	prodOr                  // a disjunction of two productions
	prodNE                  // a != v (a rest row)
	prodOneSided            // a one-sided inequality on each of a and b (a rest row)
	prodWild                // nil
	prodSource              // one of fuzzSources
	prodRangeNumStr         // a range, a numeric residual, then a string check or !=
	prodRangeStrNum         // a range, a string check or !=, then a numeric residual
	prodRangeStrAttr        // a range and a numeric residual on s, often a string
	prodRangeNaNRes         // a range and a residual with a NaN bound
	numProds
)

// fuzzSources are TestIndexNaNMatchesFilter's filters: every operator
// on a NaN attribute, ranges of each strictness, riders, a disjunction.
var fuzzSources = []string{
	"a < 5", "a <= 5", "a > 5", "a >= 5", "a == 5", "a != 5",
	"a >= 1 && a <= 2",
	"a > 1 && a < 2",
	"a >= 1 && a < 2",
	"a <= 5 && b < 3",
	"a == 5 && b < 3",
	"a >= 1 && a <= 2 && b != 7",
	"s == 'x' && a >= 5",
	"a < 5 || a >= 7",
}

// fuzzNums are the bounds and attribute values: a few that collide with
// fuzzSources' bounds, a signed zero, values an ulp-sized step apart,
// NaN and both infinities; then the scan's float32 edges — 0.1 and
// 1+2⁻³⁰ lie strictly between two float32s, 1+2⁻²³ is the float32 after
// 1, ±MaxFloat32 and ±3.5e38 sit at and past float32's range, and the
// smallest float32 and float64 denormals.
var fuzzNums = []float64{
	0, math.Copysign(0, -1), 1, 1.5, 2, 3, 5, 7, -1, 1e-300,
	1 + 1e-15, math.NaN(), math.Inf(1), math.Inf(-1),
	0.1, 1 + 0x1p-30, 1 + 0x1p-23, math.MaxFloat32, -math.MaxFloat32,
	3.5e38, -3.5e38, math.SmallestNonzeroFloat32, 5e-324,
}

var (
	fuzzAttrs = []string{"a", "b", "k", "s"}
	fuzzStrs  = []string{"x", "y", ""}
)

// fuzzInput reads an index program; past its end every byte is zero.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) next() int {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return int(c)
}

func (in *fuzzInput) num() float64 { return fuzzNums[in.next()%len(fuzzNums)] }
func (in *fuzzInput) attr() string { return fuzzAttrs[in.next()%len(fuzzAttrs)] }
func (in *fuzzInput) str() string  { return fuzzStrs[in.next()%len(fuzzStrs)] }
func (in *fuzzInput) lowOp() Op    { return []Op{GT, GE}[in.next()%2] }
func (in *fuzzInput) highOp() Op   { return []Op{LT, LE}[in.next()%2] }
func (in *fuzzInput) id() int32    { return fuzzID(in.next()) }
func (in *fuzzInput) rng(op1, op2 Op) *Filter {
	return And(NewPred("a", op1, Num(in.num())), NewPred("a", op2, Num(in.num())))
}

// fuzzID maps a byte to an id: sixteen dense ids, repeated often, and a
// few negative ones that switch the index to its sparse emit path.
func fuzzID(c int) int32 {
	if c >= 0xf8 {
		return -int32(c & 7)
	}
	return int32(c % 16)
}

// pred is any predicate the language has: an attribute, any operator,
// a numeric or string operand.
func (in *fuzzInput) pred() *Filter {
	attr, op := in.attr(), Op(in.next()%int(NE+1))
	if c := in.next(); c%4 == 0 {
		return NewPred(attr, op, Str(fuzzStrs[c/4%len(fuzzStrs)]))
	}
	return NewPred(attr, op, Num(in.num()))
}

// numPred is a numeric predicate other than !=.
func (in *fuzzInput) numPred() *Filter {
	return NewPred(in.attr(), Op(in.next()%int(NE)), Num(in.num()))
}

// strOrNE is a string predicate (any operator) or a numeric !=.
func (in *fuzzInput) strOrNE() *Filter {
	if in.next()%2 == 0 {
		return NewPred(in.attr(), Op(in.next()%int(NE+1)), Str(in.str()))
	}
	return NewPred(in.attr(), NE, Num(in.num()))
}

func (in *fuzzInput) filter(depth int) *Filter {
	switch p := in.next() % numProds; p {
	case prodStrict:
		return in.rng(GT, LT)
	case prodClosed:
		return in.rng(GE, LE)
	case prodHalfOpen:
		if in.next()%2 == 0 {
			return in.rng(GE, LT)
		}
		return in.rng(GT, LE)
	case prodRangeRes:
		return And(in.rng(in.lowOp(), in.highOp()), in.pred())
	case prodEq:
		return Eq("k", Num(in.num()))
	case prodEqRes:
		return And(Eq("k", Num(in.num())), in.pred(), in.pred())
	case prodStrEqRes:
		return And(Eq("s", Str(in.str())), in.pred())
	case prodEqStrRes:
		return And(Eq("k", Num(in.num())), Eq("s", Str(in.str())))
	case prodOr:
		if depth > 2 {
			return in.rng(GT, LT)
		}
		return Or(in.filter(depth+1), in.filter(depth+1))
	case prodNE:
		return NewPred(in.attr(), NE, Num(in.num()))
	case prodOneSided:
		return And(NewPred("a", Op(in.next()%4), Num(in.num())), NewPred("b", Op(in.next()%4), Num(in.num())))
	case prodWild:
		return nil
	case prodRangeNumStr:
		return And(in.rng(in.lowOp(), in.highOp()), in.numPred(), in.strOrNE())
	case prodRangeStrNum:
		return And(in.rng(in.lowOp(), in.highOp()), in.strOrNE(), in.numPred())
	case prodRangeStrAttr:
		return And(in.rng(in.lowOp(), in.highOp()), NewPred("s", Op(in.next()%int(NE+1)), Num(in.num())))
	case prodRangeNaNRes:
		return And(in.rng(in.lowOp(), in.highOp()), NewPred(in.attr(), Op(in.next()%int(NE+1)), Num(math.NaN())))
	default:
		return MustParse(fuzzSources[in.next()%len(fuzzSources)])
	}
}

// message draws one value (or none) per attribute: a table number, one
// ulp above or below it, or a string.
func (in *fuzzInput) message() iterMap {
	m := iterMap{AttrMap{}}
	for _, name := range fuzzAttrs {
		switch c := in.next(); c % 5 {
		case 0: // absent
		case 1:
			m.AttrMap[name] = Str(fuzzStrs[c/5%len(fuzzStrs)])
		default:
			x := fuzzNums[c/5%len(fuzzNums)]
			switch c % 5 {
			case 3:
				x = math.Nextafter(x, math.Inf(1))
			case 4:
				x = math.Nextafter(x, math.Inf(-1))
			}
			m.AttrMap[name] = Num(x)
		}
	}
	return m
}

// runIndexProgram executes an index program against a reference model —
// every live id's filters, evaluated directly — and fails on the first
// disagreement. The scan keeps one row per Add, killed when its id is
// removed and squeezed out as a routing table's source list is: when
// dead rows pass 32 and outnumber the live ones, and on every Flush.
func runIndexProgram(t *testing.T, in *fuzzInput) {
	ix := NewIndex()
	live := map[int32][]*Filter{}
	var sc scanModel
	var scratch MatchScratch
	fresh := int32(1000)
	add := func(id int32, f *Filter) {
		live[id] = append(live[id], f)
		sc.add(id, f)
	}
	remove := func(id int32) {
		delete(live, id)
		sc.remove(id)
	}
	for ops := 0; len(in.b) > 0 && ops < 2000; ops++ {
		switch in.next() % numOps {
		case opAdd:
			id, f := in.id(), in.filter(0)
			ix.Add(id, f)
			add(id, f)
		case opAddBatch:
			n := 1 + in.next()%8
			ids, fs := make([]int32, n), make([]*Filter, n)
			for i := range ids {
				ids[i], fs[i] = in.id(), in.filter(0)
				add(ids[i], fs[i])
			}
			ix.AddBatch(ids, fs)
		case opRemove:
			id := in.id()
			_, want := live[id]
			if got := ix.Remove(id); got != want {
				t.Fatalf("Remove(%d) = %v, want %v", id, got, want)
			}
			remove(id)
		case opFlush:
			ix.Flush()
			sc.compact()
		case opMatch:
			a := in.message()
			checkIndexMatch(t, ix, &scratch, live, a)
			sc.check(t, &scratch, a)
		case opChurn:
			n, keep := 32+in.next()%128, 2+in.next()%6
			f := in.filter(0)
			for i := 0; i < n; i++ {
				ix.Add(fresh+int32(i), f)
				add(fresh+int32(i), f)
			}
			for i := 0; i < n; i++ {
				if i%keep != 0 {
					ix.Remove(fresh + int32(i))
					remove(fresh + int32(i))
				}
			}
			fresh += int32(n)
		case opReAdd:
			id, f := in.id(), in.filter(0)
			ix.Remove(id)
			remove(id)
			ix.Add(id, f)
			add(id, f)
		}
	}
	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
	}
}

// checkIndexMatch matches through the scratch the scan then reuses, so
// the two share the output buffer as a table's matchers do.
func checkIndexMatch(t *testing.T, ix *Index, s *MatchScratch, live map[int32][]*Filter, a iterMap) {
	t.Helper()
	got := map[int32]bool{}
	for _, id := range ix.MatchWith(s, a) {
		if got[id] {
			t.Fatalf("%v: id %d emitted twice", a.AttrMap, id)
		}
		if live[id] == nil {
			t.Fatalf("%v: id %d emitted, not live", a.AttrMap, id)
		}
		got[id] = true
	}
	for id, fs := range live {
		want := false
		for _, f := range fs {
			want = want || f.Match(a)
		}
		if want != got[id] {
			t.Fatalf("%v: id %d (%v): filters say %v, index %v", a.AttrMap, id, fs, want, got[id])
		}
	}
}

// scanModel is a Scan with the filter and id of each of its rows, and
// each id's row positions.
type scanModel struct {
	sc   Scan
	rows []modelRow
	of   map[int32][]int
	dead int
}

type modelRow struct {
	id   int32
	f    *Filter
	live bool
}

func (m *scanModel) add(id int32, f *Filter) {
	if m.of == nil {
		m.of = map[int32][]int{}
	}
	m.sc.Add(f)
	m.of[id] = append(m.of[id], len(m.rows))
	m.rows = append(m.rows, modelRow{id: id, f: f, live: true})
}

func (m *scanModel) remove(id int32) {
	for _, pos := range m.of[id] {
		m.rows[pos].live = false
		m.sc.Kill(pos)
		m.dead++
	}
	delete(m.of, id)
	if m.dead > 32 && m.dead > len(m.rows)-m.dead {
		m.compact()
	}
}

func (m *scanModel) compact() {
	m.sc.Compact()
	k := 0
	clear(m.of)
	for _, r := range m.rows {
		if r.live {
			m.of[r.id] = append(m.of[r.id], k)
			m.rows[k] = r
			k++
		}
	}
	m.rows, m.dead = m.rows[:k], 0
	if len(m.sc.state) != k {
		panic("scan and model rows out of step")
	}
}

// check runs the scan and confirms its flagged rows, as a table's linear
// match does, against every live row's Filter.Match in row order.
func (m *scanModel) check(t *testing.T, s *MatchScratch, a iterMap) {
	t.Helper()
	var got, want []int
	s.Resolve(a)
	for _, r := range s.ScanRows(&m.sc) {
		pos := int(r >> 1)
		if !m.rows[pos].live {
			t.Fatalf("%v: scan emitted dead row %d", a.AttrMap, pos)
		}
		if r&1 == 0 || m.rows[pos].f.MatchResolved(s, a) {
			got = append(got, pos)
		}
	}
	for pos, r := range m.rows {
		if r.live && r.f.Match(a) {
			want = append(want, pos)
		}
	}
	if !slices.Equal(got, want) {
		for _, pos := range append(got, want...) {
			t.Logf("row %d: %v", pos, m.rows[pos].f)
		}
		t.Fatalf("%v: scan rows %v, filters say %v", a.AttrMap, got, want)
	}
}

// indexFuzzSeeds is the seed corpus: TestIndexNaNMatchesFilter's
// filters matched against NaN and on-bound messages, every production
// once, and a churn program that compacts.
func indexFuzzSeeds() [][]byte {
	// A message names a value per attribute: fuzzNums[i] exactly
	// (num(i)), one ulp above it (num(i)+1), "x" (1), "y" (6) or none (0).
	num := func(i int) byte { return byte(i*5 + 2) }
	const one, two, three, five, nan = 2, 4, 5, 6, 11
	msgs := [][]byte{
		{opMatch, num(nan), 0, 0, 0},
		{opMatch, num(nan), num(one), 0, 1},
		{opMatch, num(nan), num(nan), 0, 6},
		{opMatch, num(3), num(nan), 0, 1},
		{opMatch, num(one), num(two), num(three), 1},
		{opMatch, num(two) + 1, num(one), num(three), 6},
	}
	// Each production with exactly the argument bytes it reads.
	prods := [][]byte{
		{prodStrict, one, two},                                  // a > 1 && a < 2
		{prodClosed, one, two},                                  // a >= 1 && a <= 2
		{prodHalfOpen, 1, one, two},                             // a > 1 && a <= 2
		{prodRangeRes, 0, 1, one, two, 1, byte(LT), 1, five},    // a > 1 && a <= 2 && b < 5
		{prodEq, three},                                         // k == 3
		{prodEqRes, three, 0, byte(NE), 1, one, 3, byte(GE), 4}, // k == 3 && a != 1 && s >= "y"
		{prodStrEqRes, 0, 0, byte(GT), 1, two},                  // s == "x" && a > 2
		{prodEqStrRes, three, 0},                                // k == 3 && s == "x"
		{prodOr, prodStrict, one, two, prodEq, three},
		{prodNE, 0, three}, // a != 3
		{prodOneSided, byte(LT), five, byte(LE), five},
		{prodWild},
		{prodSource, 11},
		{prodRangeNumStr, 0, 1, one, two, 1, byte(LT), five, 1, 1, three},      // a > 1 && a <= 2 && b < 5 && b != 3
		{prodRangeStrNum, 0, 1, one, two, 0, 3, byte(LT), 1, 1, byte(GE), one}, // a > 1 && a <= 2 && s < "y" && b >= 1
		{prodRangeStrAttr, 1, 0, one, two, byte(LE), three},                    // a >= 1 && a < 2 && s <= 3
		{prodRangeNaNRes, 0, 1, one, two, 1, byte(GE)},                         // a > 1 && a <= 2 && b >= NaN
	}
	var sources, all []byte
	for i := range fuzzSources {
		sources = append(sources, opAdd, byte(i), prodSource, byte(i))
	}
	for i, p := range prods {
		all = append(append(all, opAdd, byte(i)), p...)
	}
	all = append(all, opFlush)
	// Four churns of 159 copies, five of six removed: each leaves more
	// than 64 dead conjunctions outnumbering the live ones.
	churn := append([]byte{opAdd, 1}, prods[3]...)
	for i := 0; i < 4; i++ {
		churn = append(append(churn, opChurn, 127, 4), prods[i%2]...)
	}
	churn = append(churn, opRemove, 1)
	// Remove and re-add ids under new ranges: a re-added id posts a new
	// conjunction beside its old, tombstoned one.
	for i := 0; i < 3; i++ {
		churn = append(append(churn, opReAdd, 2), prods[13+i]...)
	}
	for _, m := range msgs {
		sources = append(sources, m...)
		all = append(all, m...)
		churn = append(churn, m...)
	}
	// Float32 edges: every value where the scan's rounding turns (both
	// zeros, 1 and the float32 after it, numbers between two float32s,
	// ±MaxFloat32 and past it, infinities, denormals, NaN) bounds a from
	// both sides, a and b from one side each, and a half-open range up to
	// the next edge; then a and b take each edge value exactly and one
	// float64 ulp above and below it.
	edges := []byte{0, 1, one, 9, nan, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22}
	var edge []byte
	for k, b := range edges {
		next := edges[(k+1)%len(edges)]
		edge = append(edge,
			opAdd, byte(k), prodClosed, b, b, // a >= b && a <= b
			opAdd, byte(k), prodOneSided, byte(LT), b, byte(GE), b, // a < b && b >= b
			opAdd, byte(k+1), prodOneSided, byte(GT), b, byte(LE), b, // a > b && b <= b
			opAdd, byte(k+2), prodHalfOpen, 0, b, next) // a >= b && a < next
	}
	// Two upper bounds on a, the looser last: a scan column keeps the
	// tighter.
	edge = append(edge, opAdd, 3, prodRangeRes, 0, 1, one, two, 0, byte(LT), 1, 7, // a > 1 && a <= 2 && a < 7
		opMatch, num(five), num(0), 0, 0) // b present: the columns decide
	var matches []byte
	for _, b := range edges {
		for d := byte(2); d <= 4; d++ {
			matches = append(matches, opMatch, 5*b+d, 5*b+6-d, 0, 0)
		}
	}
	// The same messages again once Flush has squeezed two ids' rows out
	// of the scan and moved the rest.
	edge = append(append(append(edge, matches...), opRemove, 0, opRemove, 5, opFlush), matches...)
	return [][]byte{sources, all, churn, edge}
}
