package filter

import "math"

// Scan is a linear scan's filters lowered to packed bound columns: rows
// in position order, one float32 column per (attribute slot, side) the
// rows use — a side is a predicate's upper bound ("<", "<=", "==") or
// its lower bound (">", ">=", "==") — and one state byte per row.
//
// A bound is stored rounded outward to float32: an upper bound up, a
// lower bound down (so "<" and "<=" share a column), and no stored
// bound is ever tighter than the filter. A lower bound lo on v is kept
// as the upper bound −lo on −v, so every column reads the same way.
// MatchScratch.ScanRows then decides every row from the message's
// values rounded down and up (vd ≤ v ≤ vu), in one pass over the rows
// and without a branch per row:
//
//   - certain: vu < hi on every side — the filter holds;
//   - flagged: vd ≤ hi on every side, but not certain — in practice a
//     value within a float32 ulp of a bound, or a magnitude past
//     float32's range — and the caller confirms it with
//     Filter.MatchResolved, the one exact evaluator;
//   - rejected: everything else, since it fails a necessary condition.
//
// A row that the columns cannot decide has the confirm state and is
// always flagged when it passes its sides: a filter without a program
// (disjunctions, !=, strings, long conjunctions), one with a NaN
// operand, or one needing a side past maxScanCols. A row with no side
// at all (a wildcard) is certain. A message whose value for some column
// is absent, a string or NaN is not decided by the columns: every live
// row is flagged, which is the per-row MatchResolved loop.
//
// Mutation (Add, AddRow, Kill, Compact) needs exclusive use; any number
// of matchers may run ScanRows concurrently, each with its own scratch.
// The zero Scan is empty and ready to use.
type Scan struct {
	// state's capacity is the stride of bounds, which holds the columns
	// back to back: column c's bound for row i is bounds[c*stride+i], so
	// a column is one contiguous run.
	state  []uint8
	bounds []float32
	cols   [maxScanCols]scanCol
	width  int
}

// scanCol names one column: an attribute slot and a side. A row without
// a predicate on that side holds +Inf there.
type scanCol struct {
	slot uint8
	hi   bool
}

// maxScanCols caps a scan's columns, so a scan over filters naming many
// attributes does not make every row pay for all of them.
const maxScanCols = 8

// Row states, as the initial decision mask of ScanRows: bit 0 "may
// match", bit 1 "certainly matches".
const (
	rowDead    uint8 = 0
	rowConfirm uint8 = 1
	rowDecided uint8 = 3
)

// inf32 is float32 +Inf: the bound of a row without a predicate on a
// column's side, which every number but +Inf is certainly below.
var inf32 = float32(math.Inf(1))

// Width returns the number of columns.
func (sc *Scan) Width() int { return sc.width }

// stride is the distance between two columns in bounds: the rows the
// scan has room for.
func (sc *Scan) stride() int { return cap(sc.state) }

// column returns column c's bounds, one per row.
func (sc *Scan) column(c int) []float32 {
	return sc.bounds[c*sc.stride():][:len(sc.state)]
}

// Reserve makes room for n rows in total, so a scan built in one go
// grows its storage once.
func (sc *Scan) Reserve(n int) {
	if n > sc.stride() {
		sc.restride(n)
	}
}

// restride moves the columns apart to a new stride, at least the row
// count.
func (sc *Scan) restride(stride int) {
	b := make([]float32, sc.width*stride)
	for c := 0; c < sc.width; c++ {
		copy(b[c*stride:], sc.column(c))
	}
	sc.bounds = b
	sc.state = append(make([]uint8, 0, stride), sc.state...)
}

// Add appends a row for f, adding the columns it needs while there is
// room.
func (sc *Scan) Add(f *Filter) {
	i := sc.appendRow()
	if f == nil || f.root == nil {
		return
	}
	n := int(f.prog.n)
	if n == 0 {
		sc.state[i] = rowConfirm
		return
	}
	var preds []Predicate
	switch r := f.root.(type) {
	case conjNode:
		preds = r.preds[:n]
	case predNode:
		preds = []Predicate{r.p}
	}
	for k := range preds {
		p := &preds[k]
		slot, b := f.prog.slot[k], p.Val.Num
		ok := b == b // a NaN operand is left to MatchResolved
		if ok && p.Op != GT && p.Op != GE {
			ok = sc.bound(i, scanCol{slot: slot, hi: true}, up32(b))
		}
		if ok && p.Op != LT && p.Op != LE {
			ok = sc.bound(i, scanCol{slot: slot}, up32(-b))
		}
		if !ok {
			sc.state[i] = rowConfirm
		}
	}
}

// appendRow appends a row with no bound (inf32) in any column and the
// decided state, returning its position.
func (sc *Scan) appendRow() int {
	i := len(sc.state)
	if i == sc.stride() {
		sc.restride(max(2*i, 8))
	}
	for c := 0; c < sc.width; c++ {
		sc.bounds[c*sc.stride()+i] = inf32
	}
	sc.state = append(sc.state, rowDecided)
	return i
}

// bound tightens row i's bound in one column, adding the column when
// the scan has room; false when it has none.
func (sc *Scan) bound(i int, col scanCol, b float32) bool {
	c := 0
	for c < sc.width && sc.cols[c] != col {
		c++
	}
	if c == sc.width {
		if c == maxScanCols {
			return false
		}
		if need := (c + 1) * sc.stride(); need > cap(sc.bounds) {
			sc.bounds = append(sc.bounds, make([]float32, need-len(sc.bounds))...)
		} else {
			sc.bounds = sc.bounds[:need]
		}
		sc.cols[c] = col
		sc.width++
		run := sc.column(c)
		for j := range run {
			run[j] = inf32
		}
	}
	if at := &sc.bounds[c*sc.stride()+i]; b < *at {
		*at = b
	}
	return true
}

// Carve returns an empty scan over sc's columns whose first n rows are
// stored in the front of *bounds (n per column) and *states, and
// advances both past them: a bulk build lowers each filter once into
// one scan, then carves every table's scans from one allocation and
// copies rows with AddRow.
func (sc *Scan) Carve(n int, bounds *[]float32, states *[]uint8) Scan {
	w := sc.width * n
	out := Scan{state: (*states)[:0:n], bounds: (*bounds)[:w:w], cols: sc.cols, width: sc.width}
	*states, *bounds = (*states)[n:], (*bounds)[w:]
	return out
}

// AddRow appends a copy of row i of from, which must have the same
// columns (a scan carved from it, before any Add).
func (sc *Scan) AddRow(from *Scan, i int) {
	j := sc.appendRow()
	for c := 0; c < sc.width; c++ {
		sc.bounds[c*sc.stride()+j] = from.bounds[c*from.stride()+i]
	}
	sc.state[j] = from.state[i]
}

// Kill marks a row dead: ScanRows never emits it again.
func (sc *Scan) Kill(pos int) { sc.state[pos] = rowDead }

// Compact squeezes the dead rows out, keeping the live ones in order.
func (sc *Scan) Compact() {
	k := 0
	for i, st := range sc.state {
		if st == rowDead {
			continue
		}
		for c := 0; c < sc.width; c++ {
			sc.bounds[c*sc.stride()+k] = sc.bounds[c*sc.stride()+i]
		}
		sc.state[k] = st
		k++
	}
	sc.state = sc.state[:k]
}

// ScanRows decides every row of sc against the message resolved in s
// (s.Resolve, once per message) and returns the rows that may match, in
// position order: row r is position r>>1, and r&1 is set when the
// caller must confirm it with the row's Filter.MatchResolved. The slice
// is owned by the scratch and valid until its next ScanRows.
//
// One pass over the rows decides each from its state and every column
// and writes its entry at the next output slot, which advances only
// when the row may match: no branch depends on a row's state or bounds.
func (s *MatchScratch) ScanRows(sc *Scan) []int32 {
	out := grow(s.rows, len(sc.state))
	var vd, vu [maxScanCols]float32
	w, decided := sc.width, sc.width > 0
	for c := 0; c < w; c++ {
		col := sc.cols[c]
		if int(col.slot) >= len(s.attrs) || s.attrs[col.slot].at != s.attrEpoch {
			decided = false // absent, or a string
			break
		}
		x := s.attrs[col.slot].num
		if x != x {
			decided = false
			break
		}
		if !col.hi {
			x = -x
		}
		vd[c], vu[c] = bracket32(x)
	}
	k := 0
	if !decided {
		// No columns: the state decides. Values the columns cannot
		// judge: every live row is confirmed.
		keep := rowDecided
		if w > 0 {
			keep = rowConfirm
		}
		for i, st := range sc.state {
			st &= keep
			out[k] = int32(i)<<1 | int32(st>>1^1)
			k += int(st & 1)
		}
		s.rows = out[:k]
		return s.rows
	}
	// Columns 0 and 1 are read as two runs; a single column stands in
	// for the second too. Any further column is read by stride.
	b0, d0, u0 := sc.column(0), vd[0], vu[0]
	b1, d1, u1 := b0, d0, u0
	if w > 1 {
		b1, d1, u1 = sc.column(1), vd[1], vu[1]
	}
	state, b1 := sc.state[:len(b0)], b1[:len(b0)]
	stride := sc.stride()
	for i, h0 := range b0 {
		h1 := b1[i]
		st := state[i]
		may := st & bit(d0 <= h0) & bit(d1 <= h1)
		sure := st >> 1 & bit(u0 < h0) & bit(u1 < h1)
		for c := 2; c < w; c++ {
			h := sc.bounds[c*stride+i]
			may &= bit(vd[c] <= h)
			sure &= bit(vu[c] < h)
		}
		out[k] = int32(i)<<1 | int32(sure^1)
		k += int(may)
	}
	s.rows = out[:k]
	return s.rows
}

// bracket32 returns down32(x) and up32(x): one conversion and, unless x
// is a float32, one step to the neighbour on x's other side.
func bracket32(x float64) (d, u float32) {
	if x > math.MaxFloat32 || x < -math.MaxFloat32 {
		return down32(x), up32(x)
	}
	f := float32(x)
	switch g := float64(f); {
	case g < x:
		return f, math.Nextafter32(f, inf32)
	case g > x:
		return math.Nextafter32(f, -inf32), f
	}
	return f, f
}

// down32 is the largest float32 not above x (x not NaN).
func down32(x float64) float32 {
	switch {
	case x > math.MaxFloat32:
		if math.IsInf(x, 1) {
			return inf32
		}
		return math.MaxFloat32
	case x < -math.MaxFloat32:
		return -inf32
	}
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, -inf32)
	}
	return f
}

// up32 is the smallest float32 not below x (x not NaN).
func up32(x float64) float32 { return -down32(-x) }
