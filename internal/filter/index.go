package filter

import (
	"math"
	"slices"
	"sort"
)

// Iterable is the attribute interface the index needs: lookup plus
// iteration over all attributes.
type Iterable interface {
	Attrs
	// Each calls fn for every attribute.
	Each(fn func(name string, v Value))
}

// Index is a predicate-counting matching index over a set of filters —
// the classic content-based pub/sub matching structure (Siena's counting
// algorithm), with one rule: a conjunction is *posted* under a subset of
// its predicates, a message's attributes select the satisfied postings,
// and the conjunction is a match when its satisfied count reaches the
// number posted (conjState.needed). When every predicate was posted the
// completed count is the proof; when only some were, the index keeps
// the conjunction's owning filter beside it (Index.verify) and the
// filter is evaluated whole (MatchResolved, after one lazy Resolve of
// the message per match) before the id is emitted.
//
// Which subset: a conjunction's *access predicate* when it has a
// selective one, else all of them.
//
//   - An equality (numeric or string) is posted alone, in a hash map per
//     attribute: a message value selects exactly the conjunctions that
//     name it.
//   - Else the narrowest finite two-sided numeric range the conjunction
//     puts on one attribute ("A1 > a && A1 < a+w") is posted alone, by
//     its lower bound, in that attribute's list for the range's *width
//     class* e = Frexp(hi−lo), clamped to ±ivMaxExp. Every range of
//     class e is narrower than 2^e, so the ranges of the class that
//     contain x have their lower bound in [x − 2^e, x]: one binary
//     search per class, then at most about twice the ranges that really
//     hold x. Classes keep one wide range among ten thousand narrow ones
//     from widening everyone's window. Strictness of the bounds, and
//     whatever else rides beside an access predicate (!=, string
//     inequalities, further ranges), is settled by the whole-filter
//     evaluation and needs no list of its own.
//   - A conjunction with neither — the paper's "A1 < x && A2 < y" — has
//     every predicate posted in per-(attribute, operator) sorted lists
//     and is proved by the count alone. This is the part that stays
//     linear in the table, by nature: a one-sided predicate is true for
//     about half of any population, so half of each list is bumped to
//     find the few conjunctions whose every predicate holds. Posting
//     such conjunctions under one predicate instead does not pay (the
//     first prototype did, and doubled BenchmarkChurnMatch/quiet): it
//     trades two array bumps per candidate for three dependent cache
//     misses evaluating the filter, over the same half of the table.
//
// Filters with a conjunction that has no access predicate and holds a
// predicate the lists cannot count (!=, a string inequality, a NaN
// bound) fall back to a linear list, so Match is always equivalent to
// evaluating every filter directly — including on NaN attribute values,
// which Value.compare places neither below nor above any bound.
//
// The index is built for churn: the subscription population it serves is
// expected to mutate continuously, so every mutation is incremental and
// sublinear.
//
//   - Add inserts each posted predicate into a small unsorted tail
//     behind its list's sorted run; a tail is merged into its run only
//     when it outgrows √n (amortized o(n) per insert). Only the lists a
//     predicate actually lands in are ever touched: an Add on attribute
//     "a" never re-sorts attribute "b", and wildcard or fallback adds
//     touch no list at all.
//   - Remove(id) tombstones the id's conjunctions through per-id
//     back-references (id → conjunction indices) without touching the
//     predicate lists; the lists are compacted in one O(P) sweep only
//     when dead conjunctions outnumber live ones.
//   - AddBatch indexes a whole population sorting each touched list
//     exactly once (the bulk-build path tables use).
//
// Matching never mutates the index itself — sorted runs are searched by
// binary search and tails (bounded by √n) by linear scan — so concurrent
// matchers may share one index, each bringing its own MatchScratch,
// while mutators synchronize externally (readers-writer style: Add /
// Remove / AddBatch under the write lock, MatchWith under the read
// lock). The serial Match entry point keeps the historical exclusive-use
// contract and is allocation-free in steady state.
type Index struct {
	conjs []conjState
	// verify is nil until a conjunction is posted under fewer predicates
	// than it has, and parallel to conjs from then on: verify[ci] is the
	// owning filter of such a conjunction — a completed count only
	// nominates it, and the filter is evaluated before the id is emitted —
	// and nil where the count is the proof. (Beside conjs, not in it: the
	// slab of a paper-form population stays pointer-free, which the
	// collector neither scans nor sweeps for.)
	verify []*Filter
	// wild lists the ids of zero-predicate (wildcard) conjunctions in
	// add order; they match every message. wildDead tombstones removed
	// slots (the list compacts when dead outnumber live).
	wild     []int32
	wildDead []bool
	deadWild int
	// per-attribute predicate lists: a sorted run plus an unsorted tail.
	lt map[string]*boundList // pred: v < bound  (satisfied: bound > v)
	le map[string]*boundList // pred: v <= bound (satisfied: bound >= v)
	gt map[string]*boundList // pred: v > bound  (satisfied: bound < v)
	ge map[string]*boundList // pred: v >= bound (satisfied: bound <= v)
	eq map[string]map[float64][]int32
	se map[string]map[string][]int32 // string equality
	// iv holds the two-sided ranges posted as access predicates: per
	// attribute, one list of lower bounds per width class. Made on the
	// first range (most tables never see one).
	iv map[string][]*ivClass

	fallback     []fallbackFilter
	deadFallback int

	// known maps each live id to its index state — the back-references
	// Remove follows to tombstone conjunctions without rebuilding.
	known map[int32]*idState

	// live/dead accounting drives compaction.
	liveConjs, deadConjs int

	// Id-density tracking for the dense emit-stamp fast path. Ids are
	// usually small and dense (routing tables use positions); an id
	// outside [0, denseLimit] flips matching to a map permanently.
	dense bool
	maxID int32

	// scratch backs the serial Match entry point.
	scratch MatchScratch

	// merges counts deferred tail merges (diagnostics; tests assert that
	// only touched lists ever merge).
	merges int
}

// denseLimit bounds the id-indexed stamp slice; ids beyond it (or
// negative) use the map fallback instead of a multi-megabyte slice.
const denseLimit = 1 << 20

// conjState is one posted conjunction. needed is the number of its
// predicates that were posted; Remove zeroes it, and a count — which
// starts at one — never completes at zero, so tombstoned conjunctions
// keep counting but never emit.
type conjState struct {
	id     int32 // caller's id for the owning filter
	needed int32
}

// idState is one id's back-references into the index structures, so
// Remove touches only its own entries in each of them.
type idState struct {
	conjs     []int32 // indices into Index.conjs
	wilds     []int32 // indices into Index.wild
	fallbacks []int32 // indices into Index.fallback
}

// boundList is one (attribute, operator) predicate list: a run sorted by
// bound plus an unsorted insertion tail. The tail is merged into the run
// when it outgrows √(run length), so inserts stay cheap and lookups stay
// logarithmic plus a bounded linear scan.
type boundList struct {
	bounds []float64
	conj   []int32
	// unsorted tail of recent inserts
	tailBounds []float64
	tailConj   []int32
}

// ivClass is one attribute's ranges of one width class, listed by lower
// bound: every range in it is narrower than span, a power of two —
// except that the top class (2^ivMaxExp and everything wider) has span
// +Inf, and the bottom one takes everything narrower, empty ranges
// included.
type ivClass struct {
	boundList
	span float64
}

// ivMaxExp clamps the width classes: 2^±40 spans twenty-four decimal
// orders of magnitude around 1, and bounds the classes an attribute can
// grow to 81 whatever widths remote subscribers choose.
const ivMaxExp = 40

type fallbackFilter struct {
	id int32
	f  *Filter
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		lt:    make(map[string]*boundList),
		le:    make(map[string]*boundList),
		gt:    make(map[string]*boundList),
		ge:    make(map[string]*boundList),
		eq:    make(map[string]map[float64][]int32),
		se:    make(map[string]map[string][]int32),
		known: make(map[int32]*idState),
		dense: true,
	}
}

// Len returns the number of distinct live filter ids (indexed +
// wildcard + fallback).
func (ix *Index) Len() int { return len(ix.known) }

// state returns (creating) the id's back-reference record and keeps the
// dense-id tracking current.
func (ix *Index) state(id int32) *idState {
	st := ix.known[id]
	if st == nil {
		st = &idState{}
		ix.known[id] = st
	}
	if id < 0 || id > denseLimit {
		ix.dense = false
	} else if id > ix.maxID {
		ix.maxID = id
	}
	return st
}

// Add registers a filter under the caller's id. Ids may repeat (a
// subscription re-added is matched once per Match call regardless).
// Amortized cost is sublinear: each predicate lands in its list's
// unsorted tail, and a tail is merged only when it outgrows √n — no
// other list is touched, where the previous implementation re-sorted
// every bound list of every operator on every Add (including wildcard
// and fallback adds, which touch no bound list at all).
//
// Mutations (Add, AddBatch, Remove) must be serialized with each other
// and exclude concurrent matchers.
func (ix *Index) Add(id int32, f *Filter) {
	ix.addOne(id, f, false)
}

// AddBatch registers many filters at once, deferring every run merge so
// each touched list is sorted exactly once at the end — the bulk-build
// path. ids and filters are parallel slices.
func (ix *Index) AddBatch(ids []int32, filters []*Filter) {
	if len(ids) != len(filters) {
		panic("filter: AddBatch slice lengths differ")
	}
	for i := range ids {
		ix.addOne(ids[i], filters[i], true)
	}
	ix.Flush()
}

func (ix *Index) addOne(id int32, f *Filter, batch bool) {
	st := ix.state(id)
	if f == nil || f.root == nil {
		// Wildcard: a conjunction with zero predicates always matches.
		// No bound list is touched.
		st.wilds = append(st.wilds, int32(len(ix.wild)))
		ix.wild = append(ix.wild, id)
		ix.wildDead = append(ix.wildDead, false)
		return
	}
	dnf := f.DNF()
	for _, conj := range dnf {
		if !countable(conj) && accessOf(conj).kind == accessNone {
			// Linear fallback evaluates the whole filter once; again no
			// bound list is touched.
			st.fallbacks = append(st.fallbacks, int32(len(ix.fallback)))
			ix.fallback = append(ix.fallback, fallbackFilter{id: id, f: f})
			return
		}
	}
	for _, conj := range dnf {
		ci := int32(len(ix.conjs))
		c := conjState{id: id, needed: 1}
		var verify *Filter
		switch acc := accessOf(conj); acc.kind {
		case accessEq:
			ix.postEq(&conj[acc.pred], ci)
			if len(conj) > 1 {
				verify = f
			}
		case accessRange:
			// The window a class searches over-selects (and ignores
			// strictness), so a range is always verified.
			ix.postRange(conj[acc.pred].Attr, acc.lo, acc.width, ci, batch)
			verify = f
		default:
			// Numeric inequalities only: an equality would have been the
			// access predicate, anything else sent the filter to fallback.
			c.needed = int32(len(conj))
			for i := range conj {
				ix.insert(ix.opMap(conj[i].Op), conj[i].Attr, conj[i].Val.Num, ci, batch)
			}
		}
		if verify != nil && ix.verify == nil {
			ix.verify = make([]*Filter, len(ix.conjs), cap(ix.conjs))
		}
		if ix.verify != nil {
			ix.verify = append(ix.verify, verify)
		}
		ix.conjs = append(ix.conjs, c)
		st.conjs = append(st.conjs, ci)
		ix.liveConjs++
	}
}

// access is a conjunction's access predicate: the one posting that
// stands for it in the index.
type access struct {
	kind  accessKind
	pred  int     // accessEq: the equality; accessRange: a predicate on the attribute
	lo    float64 // accessRange: the range's lower bound …
	width float64 // … and hi − lo (negative when no value satisfies it)
}

type accessKind uint8

const (
	accessNone  accessKind = iota // no selective predicate: post and count them all
	accessEq                      // an equality, posted alone
	accessRange                   // the narrowest finite two-sided range, posted alone
)

// accessOf picks a conjunction's access predicate: its first equality,
// else the narrowest range that bounds one numeric attribute from both
// sides with finite bounds. One-sided conjunctions have none.
func accessOf(conj []Predicate) access {
	for i := range conj {
		if conj[i].Op == EQ && !nanBound(&conj[i]) {
			return access{kind: accessEq, pred: i}
		}
	}
	best := access{width: math.Inf(1)}
	for i := range conj {
		p := &conj[i]
		if p.Val.Kind != Number || (p.Op != GT && p.Op != GE) {
			continue
		}
		// The tightest bounds the conjunction puts on p's attribute. A
		// NaN bound makes the width NaN, which is never the narrowest.
		lo, hi := math.Inf(-1), math.Inf(1)
		for j := range conj {
			q := &conj[j]
			if q.Attr != p.Attr || q.Val.Kind != Number {
				continue
			}
			switch q.Op {
			case GT, GE:
				lo = max(lo, q.Val.Num)
			case LT, LE:
				hi = min(hi, q.Val.Num)
			}
		}
		if w := hi - lo; w < best.width {
			best = access{kind: accessRange, pred: i, lo: lo, width: w}
		}
	}
	return best
}

// nanBound reports a numeric predicate whose bound is NaN. Value.compare
// makes such a bound equal to every number, which no sorted list or hash
// map can express.
func nanBound(p *Predicate) bool { return p.Val.Kind == Number && p.Val.Num != p.Val.Num }

// countable reports whether every predicate of a conjunction can be
// posted in the counting lists.
func countable(conj []Predicate) bool {
	for i := range conj {
		p := &conj[i]
		if p.Op == NE || (p.Val.Kind == String && p.Op != EQ) || nanBound(p) {
			return false
		}
	}
	return true
}

// postEq posts an equality predicate under its value.
func (ix *Index) postEq(p *Predicate, ci int32) {
	if p.Val.Kind == String {
		m := ix.se[p.Attr]
		if m == nil {
			m = make(map[string][]int32)
			ix.se[p.Attr] = m
		}
		m[p.Val.Str] = append(m[p.Val.Str], ci)
		return
	}
	m := ix.eq[p.Attr]
	if m == nil {
		m = make(map[float64][]int32)
		ix.eq[p.Attr] = m
	}
	m[p.Val.Num] = append(m[p.Val.Num], ci)
}

// postRange posts a two-sided range by its lower bound in the
// attribute's list for the range's width class.
func (ix *Index) postRange(attr string, lo, width float64, ci int32, batch bool) {
	exp := -ivMaxExp // empty and zero-width ranges: the narrowest class
	if width > 0 {
		_, exp = math.Frexp(width) // width = f·2^exp, f ∈ [½, 1)
		exp = min(max(exp, -ivMaxExp), ivMaxExp)
	}
	span := math.Ldexp(1, exp)
	if exp == ivMaxExp {
		span = math.Inf(1)
	}
	var c *ivClass
	for _, k := range ix.iv[attr] {
		if k.span == span {
			c = k
			break
		}
	}
	if c == nil {
		c = &ivClass{span: span}
		if ix.iv == nil {
			ix.iv = make(map[string][]*ivClass)
		}
		ix.iv[attr] = append(ix.iv[attr], c)
	}
	c.add(ix, lo, ci, batch)
}

// opMap returns the bound-list map for an inequality operator.
func (ix *Index) opMap(op Op) map[string]*boundList {
	switch op {
	case LT:
		return ix.lt
	case LE:
		return ix.le
	case GT:
		return ix.gt
	case GE:
		return ix.ge
	}
	panic("filter: not an indexable inequality op")
}

// insert posts one inequality predicate in its (attribute, operator)
// list.
func (ix *Index) insert(m map[string]*boundList, attr string, bound float64, ci int32, batch bool) {
	bl := m[attr]
	if bl == nil {
		bl = &boundList{}
		m[attr] = bl
	}
	bl.add(ix, bound, ci, batch)
}

// add appends one posting to the list's tail, merging when the tail
// outgrows √(run length) — unless the caller batches, in which case the
// merge is deferred to Flush.
func (bl *boundList) add(ix *Index, bound float64, ci int32, batch bool) {
	bl.tailBounds = append(bl.tailBounds, bound)
	bl.tailConj = append(bl.tailConj, ci)
	if !batch && bl.tailOverflow() {
		bl.merge(ix)
	}
}

// tailOverflow reports whether the tail has outgrown √(run length).
// Small lists merge eagerly past a constant floor so lookups on young
// attributes stay mostly-sorted.
func (bl *boundList) tailOverflow() bool {
	t := len(bl.tailBounds)
	if t < 16 {
		return false
	}
	return t*t > len(bl.bounds)
}

// merge folds the unsorted tail into the sorted run: sort the tail, then
// one backward in-place merge — O(n + t log t), the single sort this
// list pays for the last t inserts.
func (bl *boundList) merge(ix *Index) {
	t := len(bl.tailBounds)
	if t == 0 {
		return
	}
	ix.merges++
	sort.Sort(byBound{bl.tailBounds, bl.tailConj})
	n := len(bl.bounds)
	bl.bounds = append(bl.bounds, bl.tailBounds...)
	bl.conj = append(bl.conj, bl.tailConj...)
	// Backward merge: dest k always sits at or beyond read index i, so
	// writing into the same array is safe.
	i, j := n-1, t-1
	for k := n + t - 1; j >= 0; k-- {
		if i >= 0 && bl.bounds[i] > bl.tailBounds[j] {
			bl.bounds[k] = bl.bounds[i]
			bl.conj[k] = bl.conj[i]
			i--
		} else {
			bl.bounds[k] = bl.tailBounds[j]
			bl.conj[k] = bl.tailConj[j]
			j--
		}
	}
	bl.tailBounds = bl.tailBounds[:0]
	bl.tailConj = bl.tailConj[:0]
}

// Flush merges every pending tail into its sorted run (each touched
// list sorted once). AddBatch calls it; callers that interleave Add
// bursts with latency-critical matching may call it at a quiet moment.
func (ix *Index) Flush() {
	for _, m := range []map[string]*boundList{ix.lt, ix.le, ix.gt, ix.ge} {
		for _, bl := range m {
			bl.merge(ix)
		}
	}
	for _, classes := range ix.iv {
		for _, c := range classes {
			c.merge(ix)
		}
	}
}

// Remove deletes every registration of an id — indexed conjunctions,
// wildcards and fallbacks — and reports whether the id was present.
// Conjunctions are tombstoned through the id's back-references without
// touching the predicate lists; lists are compacted in one sweep only
// when dead conjunctions outnumber live ones.
func (ix *Index) Remove(id int32) bool {
	st := ix.known[id]
	if st == nil {
		return false
	}
	delete(ix.known, id)
	for _, ci := range st.conjs {
		ix.conjs[ci].needed = 0
		if ix.verify != nil {
			ix.verify[ci] = nil
		}
		ix.liveConjs--
		ix.deadConjs++
	}
	for _, wi := range st.wilds {
		if !ix.wildDead[wi] {
			ix.wildDead[wi] = true
			ix.deadWild++
		}
	}
	if ix.deadWild*2 > len(ix.wild) {
		ix.compactWild()
	}
	for _, fi := range st.fallbacks {
		if ix.fallback[fi].f != nil {
			ix.fallback[fi].f = nil
			ix.deadFallback++
		}
	}
	if ix.deadFallback*2 > len(ix.fallback) {
		ix.compactFallback()
	}
	if ix.deadConjs > 64 && ix.deadConjs > ix.liveConjs {
		ix.compact()
	}
	return true
}

// compactWild squeezes tombstoned wildcard slots out, rebuilding the
// surviving ids' back-references (add order preserved).
func (ix *Index) compactWild() {
	for i, dead := range ix.wildDead {
		if !dead {
			if st := ix.known[ix.wild[i]]; st != nil {
				st.wilds = st.wilds[:0]
			}
		}
	}
	k := int32(0)
	for i, id := range ix.wild {
		if ix.wildDead[i] {
			continue
		}
		if st := ix.known[id]; st != nil {
			st.wilds = append(st.wilds, k)
		}
		ix.wild[k] = id
		ix.wildDead[k] = false
		k++
	}
	ix.wild = ix.wild[:k]
	ix.wildDead = ix.wildDead[:k]
	ix.deadWild = 0
}

// compactFallback squeezes tombstoned fallback slots out, rebuilding
// the surviving ids' back-references (add order preserved).
func (ix *Index) compactFallback() {
	for i := range ix.fallback {
		if ix.fallback[i].f != nil {
			if st := ix.known[ix.fallback[i].id]; st != nil {
				st.fallbacks = st.fallbacks[:0]
			}
		}
	}
	kept := ix.fallback[:0]
	for _, fb := range ix.fallback {
		if fb.f == nil {
			continue
		}
		if st := ix.known[fb.id]; st != nil {
			st.fallbacks = append(st.fallbacks, int32(len(kept)))
		}
		kept = append(kept, fb)
	}
	ix.fallback = kept
	ix.deadFallback = 0
}

// compact squeezes tombstoned conjunctions out of every structure in one
// O(conjs + predicates) sweep, restoring the memory and match cost of a
// fresh build. Amortized across the removals that triggered it, the
// sweep is O(predicates per removal).
func (ix *Index) compact() {
	remap := make([]int32, len(ix.conjs))
	live := int32(0)
	for i := range ix.conjs {
		if ix.conjs[i].needed == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = live
		ix.conjs[live] = ix.conjs[i]
		if ix.verify != nil {
			ix.verify[live] = ix.verify[i]
		}
		live++
	}
	ix.conjs = ix.conjs[:live]
	if ix.verify != nil {
		clear(ix.verify[live:])
		ix.verify = ix.verify[:live]
	}

	for _, m := range []map[string]*boundList{ix.lt, ix.le, ix.gt, ix.ge} {
		for attr, bl := range m {
			if bl.compact(ix, remap) == 0 {
				delete(m, attr)
			}
		}
	}
	for attr, classes := range ix.iv {
		classes = slices.DeleteFunc(classes, func(c *ivClass) bool { return c.compact(ix, remap) == 0 })
		if len(classes) == 0 {
			delete(ix.iv, attr)
		} else {
			ix.iv[attr] = classes
		}
	}
	compactConjMap(ix.eq, remap)
	compactConjMap(ix.se, remap)
	for _, st := range ix.known {
		k := 0
		for _, ci := range st.conjs {
			if nc := remap[ci]; nc >= 0 {
				st.conjs[k] = nc
				k++
			}
		}
		st.conjs = st.conjs[:k]
	}
	ix.deadConjs = 0
}

// compact drops the list's tombstoned conjunctions and renumbers the
// rest, returning how many postings survive.
func (bl *boundList) compact(ix *Index, remap []int32) int {
	if len(bl.tailBounds) > 0 {
		bl.merge(ix) // fold the tail first so one filtered run remains
		ix.merges--  // bookkeeping merge, not an insert-driven one
	}
	k := 0
	for i := range bl.bounds {
		if nc := remap[bl.conj[i]]; nc >= 0 {
			bl.bounds[k] = bl.bounds[i]
			bl.conj[k] = nc
			k++
		}
	}
	bl.bounds = bl.bounds[:k]
	bl.conj = bl.conj[:k]
	return k
}

// compactConjMap filters and remaps the conjunction lists of an equality
// map (eq or se).
func compactConjMap[K comparable](m map[string]map[K][]int32, remap []int32) {
	for attr, vals := range m {
		for v, cis := range vals {
			k := 0
			for _, ci := range cis {
				if nc := remap[ci]; nc >= 0 {
					cis[k] = nc
					k++
				}
			}
			if k == 0 {
				delete(vals, v)
			} else {
				vals[v] = cis[:k]
			}
		}
		if len(vals) == 0 {
			delete(m, attr)
		}
	}
}

// grow returns s with length n, keeping its contents and capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// byBound sorts parallel bound/conjunction slices by bound.
type byBound struct {
	bounds []float64
	conj   []int32
}

func (s byBound) Len() int           { return len(s.bounds) }
func (s byBound) Less(i, j int) bool { return s.bounds[i] < s.bounds[j] }
func (s byBound) Swap(i, j int) {
	s.bounds[i], s.bounds[j] = s.bounds[j], s.bounds[i]
	s.conj[i], s.conj[j] = s.conj[j], s.conj[i]
}

// MatchScratch is one matcher's private epoch-stamped state: nothing is
// cleared between matches — a slot is live only when its stamp equals
// the scratch's current epoch. Concurrent matchers share one Index by
// bringing one MatchScratch each (the zero value is ready to use); the
// index itself is never written by a match.
type MatchScratch struct {
	ix    *Index
	epoch uint64
	tally []tally // per conjunction
	// Output dedup: dense ids stamp a slice, sparse ids a map.
	emittedAt  []uint64
	emittedMap map[int32]uint64
	out        []int32

	// The message being matched, and the epoch it was resolved in: the
	// first conjunction that needs its filter evaluated resolves it.
	msg        Iterable
	resolvedAt uint64

	// visit bound once so Match passes a preallocated callback to Each.
	visitor func(name string, v Value)

	// The message resolved for program evaluation (program.go): numeric
	// attributes by interned slot, stamped like everything else here.
	attrs     []resolvedAttr
	attrEpoch uint64
	resolver  func(name string, v Value)
}

// tally is one conjunction's count of satisfied postings, live while at
// equals the low word of the scratch's epoch (the tallies are cleared
// when that word wraps).
type tally struct {
	at uint32
	n  int32
}

// Match returns the ids whose filters match the attributes, each at most
// once: indexed conjunctions as their counts complete, then wildcards in
// add order, then fallback filters in add order.
//
// The returned slice is a buffer owned by the index, valid until the
// next Match call. Callers may reorder it in place but must not append
// to it or retain it across matches. Match requires exclusive use of the
// index (it shares the index-owned scratch); concurrent matchers use
// MatchWith instead.
func (ix *Index) Match(a Iterable) []int32 { return ix.MatchWith(&ix.scratch, a) }

// MatchWith is Match through a caller-owned scratch: any number of
// matchers may run concurrently against one index, each with its own
// scratch, as long as no mutation (Add / AddBatch / Remove) is in
// flight. The returned slice is owned by the scratch.
func (ix *Index) MatchWith(s *MatchScratch, a Iterable) []int32 {
	s.ix, s.msg = ix, a
	if s.visitor == nil {
		s.visitor = s.visit
	}
	s.epoch++
	if uint32(s.epoch) == 0 {
		clear(s.tally[:cap(s.tally)])
	}
	s.tally = grow(s.tally, len(ix.conjs))
	if ix.dense {
		s.emittedAt = grow(s.emittedAt, int(ix.maxID)+1)
	} else if s.emittedMap == nil {
		s.emittedMap = make(map[int32]uint64)
	}
	s.out = s.out[:0]
	a.Each(s.visitor)

	// Zero-predicate conjunctions (wildcards) match everything.
	for i, id := range ix.wild {
		if !ix.wildDead[i] {
			s.emit(id)
		}
	}

	// Fallback filters evaluate directly (nil = tombstoned by Remove).
	for i := range ix.fallback {
		if ix.fallback[i].f != nil && ix.fallback[i].f.Match(a) {
			s.emit(ix.fallback[i].id)
		}
	}
	s.msg = nil
	return s.out
}

// visit processes one message attribute, bumping the conjunction of
// every posting it satisfies: binary search over each sorted run, linear
// scan over its √n-bounded tail.
func (s *MatchScratch) visit(name string, v Value) {
	ix := s.ix
	if v.Kind == Number {
		x := v.Num
		if x != x {
			s.visitNaN(name)
			return
		}
		if bl := ix.lt[name]; bl != nil {
			// Satisfied: bound > x → suffix starting at first bound > x.
			i := sort.SearchFloat64s(bl.bounds, x)
			for ; i < len(bl.bounds) && bl.bounds[i] <= x; i++ {
			}
			for ; i < len(bl.bounds); i++ {
				s.bump(bl.conj[i])
			}
			for i, b := range bl.tailBounds {
				if b > x {
					s.bump(bl.tailConj[i])
				}
			}
		}
		if bl := ix.le[name]; bl != nil {
			// Satisfied: bound >= x.
			for i := sort.SearchFloat64s(bl.bounds, x); i < len(bl.bounds); i++ {
				s.bump(bl.conj[i])
			}
			for i, b := range bl.tailBounds {
				if b >= x {
					s.bump(bl.tailConj[i])
				}
			}
		}
		if bl := ix.gt[name]; bl != nil {
			// Satisfied: bound < x → prefix below x.
			hi := sort.SearchFloat64s(bl.bounds, x)
			for i := 0; i < hi; i++ {
				s.bump(bl.conj[i])
			}
			for i, b := range bl.tailBounds {
				if b < x {
					s.bump(bl.tailConj[i])
				}
			}
		}
		if bl := ix.ge[name]; bl != nil {
			// Satisfied: bound <= x → prefix through x.
			hi := sort.SearchFloat64s(bl.bounds, x)
			for ; hi < len(bl.bounds) && bl.bounds[hi] == x; hi++ {
			}
			for i := 0; i < hi; i++ {
				s.bump(bl.conj[i])
			}
			for i, b := range bl.tailBounds {
				if b <= x {
					s.bump(bl.tailConj[i])
				}
			}
		}
		if m := ix.eq[name]; m != nil {
			s.bumpAll(m[x])
		}
		if math.IsInf(x, 0) {
			return // a posted range has finite bounds
		}
		for _, c := range ix.iv[name] {
			// Candidates: lower bound in [x − span, x]. A range of this
			// class that holds x cannot start earlier; the filter settles
			// the rest.
			lo := x - c.span
			for i := sort.SearchFloat64s(c.bounds, lo); i < len(c.bounds) && c.bounds[i] <= x; i++ {
				s.bump(c.conj[i])
			}
			for i, b := range c.tailBounds {
				if b >= lo && b <= x {
					s.bump(c.tailConj[i])
				}
			}
		}
	} else if m := ix.se[name]; m != nil {
		s.bumpAll(m[v.Str])
	}
}

// visitNaN is visit for a NaN number. Value.compare places NaN neither
// below nor above any bound, so it satisfies every <=, >= and ==
// predicate on the attribute and no < or >; a range may hold it (closed
// bounds) or not (strict ones), which its filter decides.
func (s *MatchScratch) visitNaN(name string) {
	ix := s.ix
	for _, bl := range [...]*boundList{ix.le[name], ix.ge[name]} {
		if bl != nil {
			s.bumpAll(bl.conj)
			s.bumpAll(bl.tailConj)
		}
	}
	for _, cis := range ix.eq[name] {
		s.bumpAll(cis)
	}
	for _, c := range ix.iv[name] {
		s.bumpAll(c.conj)
		s.bumpAll(c.tailConj)
	}
}

func (s *MatchScratch) bumpAll(cis []int32) {
	for _, ci := range cis {
		s.bump(ci)
	}
}

// bump credits one satisfied posting to a conjunction. When the count
// completes, the conjunction's id is emitted — after evaluating the
// owning filter, where the postings were not the whole conjunction.
func (s *MatchScratch) bump(ci int32) {
	t := &s.tally[ci]
	if at := uint32(s.epoch); t.at != at {
		*t = tally{at: at}
	}
	t.n++
	c := &s.ix.conjs[ci]
	if t.n == c.needed {
		if v := s.ix.verify; v == nil || v[ci] == nil || s.holdsFilter(v[ci]) {
			s.emit(c.id)
		}
	}
}

// holdsFilter evaluates a nominated conjunction's filter against the
// message, resolving the message on first use in this match.
func (s *MatchScratch) holdsFilter(f *Filter) bool {
	if s.resolvedAt != s.epoch {
		s.resolvedAt = s.epoch
		s.Resolve(s.msg)
	}
	return f.MatchResolved(s, s.msg)
}

// emit appends an id to the output unless it was already emitted this
// epoch.
func (s *MatchScratch) emit(id int32) {
	if s.ix.dense {
		if s.emittedAt[id] == s.epoch {
			return
		}
		s.emittedAt[id] = s.epoch
	} else {
		if s.emittedMap[id] == s.epoch {
			return
		}
		s.emittedMap[id] = s.epoch
	}
	s.out = append(s.out, id)
}
