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
// and the conjunction is decided from flat memory the posting leads to.
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
//     from widening everyone's window. The posting carries the range's
//     upper bound and both strictness bits beside its lower bound, so
//     the window's over-selection is rejected during the sequential scan.
//   - A conjunction with neither — the paper's "A1 < x && A2 < y" — has
//     every predicate posted in per-(attribute, operator) sorted lists
//     and is proved by its count reaching the number posted
//     (conjState.needed). This is the part that stays linear in the
//     table, by nature: a one-sided predicate is true for about half of
//     any population, so half of each list is bumped to find the few
//     conjunctions whose every predicate holds. Posting such
//     conjunctions under one predicate instead does not pay: each of
//     half the table would then be decided through a conjState and its
//     residual checks — two scattered loads and a comparison where the
//     count costs one tally bump, over the same half of the table (the
//     first such prototype, evaluating whole filters, doubled
//     BenchmarkChurnMatch/quiet).
//
// A conjunction posted under its access predicate has one posting, so it
// needs no count: a posting that holds decides it at once. Whatever else
// the conjunction says — further ranges, string equalities, !=, string
// inequalities — is its *residual*, lowered at Add into a run of checks
// in one flat slab (Index.checks: attribute slot, operator, operand),
// evaluated against the message resolved by slot (MatchScratch.Resolve,
// once per match, on the first residual needed). Matching reads no
// *Filter for a posted conjunction.
//
// A range posting (ivPost, 32 bytes) carries more than its range: the
// conjunction's caller id and its first numeric residual predicate
// (slot, operator, operand), which the slab then leaves out. A posting
// that holds tests that check first; when it is the whole residual, or
// there is none, the posting *decides alone* — one test of the index's
// tombstone bitset by conjunction index (Index.dead) and the id is
// emitted, with no load of the conjunction's state or the slab. Only a
// conjunction with more residual goes on to decide. On fanout_match's
// shape ("A1 > a && A1 < a+w && A2 < b") every posting decides alone.
//
// Filters with a conjunction that has no access predicate and holds a
// predicate the lists cannot count (!=, a string inequality, a NaN
// bound) — or a residual on an attribute past the slot table's cap —
// fall back to a linear list of whole filters, so Match is always
// equivalent to evaluating every filter directly — including on NaN
// attribute values, which Value.compare places neither below nor above
// any bound.
//
// The index is built for churn: the subscription population it serves is
// expected to mutate continuously, so every mutation is incremental and
// sublinear.
//
//   - Add inserts each posting into a small unsorted tail behind its
//     list's sorted run; a tail is merged into its run only when it
//     outgrows √n (amortized o(n) per insert). Only the lists a
//     predicate actually lands in are ever touched: an Add on attribute
//     "a" never re-sorts attribute "b", and wildcard or fallback adds
//     touch no list at all.
//   - Remove(id) tombstones the id's conjunctions through per-id
//     back-references (id → kind-tagged indices) without touching the
//     predicate lists — in their state and in the tombstone bitset; the
//     lists and the check slab are compacted in one O(P) sweep only when
//     dead conjunctions outnumber live ones, which clears the bitset.
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
	// checks is the residual slab: conjunction ci's residual predicates
	// are checks[conjs[ci].res:][:conjs[ci].nres], in add order. strs
	// holds the operands of string checks (check.str indexes it).
	checks []check
	strs   []string
	// wild lists the ids of zero-predicate (wildcard) conjunctions in
	// add order; they match every message. wildDead tombstones removed
	// slots (the list compacts when dead outnumber live).
	wild     []int32
	wildDead []bool
	deadWild int
	// per-attribute predicate lists of counted conjunctions: a sorted run
	// plus an unsorted tail, posting the conjunction index.
	lt map[string]*boundList[int32] // pred: v < bound  (satisfied: bound > v)
	le map[string]*boundList[int32] // pred: v <= bound (satisfied: bound >= v)
	gt map[string]*boundList[int32] // pred: v > bound  (satisfied: bound < v)
	ge map[string]*boundList[int32] // pred: v >= bound (satisfied: bound <= v)
	eq map[string]map[float64][]int32
	se map[string]map[string][]int32 // string equality
	// iv holds the two-sided ranges posted as access predicates: per
	// attribute, one list per width class. Made on the first range (most
	// tables never see one).
	iv map[string][]*ivClass

	fallback     []fallbackFilter
	deadFallback int

	// known maps each live id to its first back-reference — what Remove
	// follows to tombstone without rebuilding — and more holds the rest
	// of an id's, for the few ids registered more than once: most ids
	// own one conjunction, and cost one eight-byte map slot.
	known map[int32]ref
	more  map[int32][]ref

	// dead is the conjunction tombstones as a bitset by conjunction
	// index, which a range posting that decides alone tests instead of
	// loading the conjunction's state. live/dead accounting drives
	// compaction.
	dead                 []uint64
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
// predicates that were posted — one for an access posting; Remove zeroes
// it, and a count, which starts at one, never completes at zero, so
// tombstoned conjunctions keep counting but never emit. res and nres
// locate its residual checks in Index.checks (all but the one a range
// posting carries).
type conjState struct {
	id     int32 // caller's id for the owning filter
	needed int32
	res    int32
	nres   int32
}

// ref is one back-reference of an id: an index into Index.conjs, wild or
// fallback, with the kind of structure in its low two bits.
type ref uint32

const (
	refConj ref = iota
	refWild
	refFallback
)

func mkRef(kind ref, i int) ref { return ref(i)<<2 | kind }
func (r ref) kind() ref         { return r & 3 }
func (r ref) index() int32      { return int32(r >> 2) }

// boundList is one predicate list: postings sorted by bound plus an
// unsorted insertion tail. The tail is merged into the run when it
// outgrows √(run length), so inserts stay cheap and lookups stay
// logarithmic plus a bounded linear scan. A counted list posts the
// conjunction index (P = int32), a width class a whole range (ivPost).
type boundList[P any] struct {
	bounds []float64
	post   []P
	// unsorted tail of recent inserts
	tailBounds []float64
	tailPost   []P
}

// ivClass is one attribute's ranges of one width class, listed by lower
// bound: every range in it is narrower than span, a power of two —
// except that the top class (2^ivMaxExp and everything wider) has span
// +Inf, and the bottom one takes everything narrower, empty ranges
// included.
type ivClass struct {
	boundList[ivPost]
	span float64
}

// ivPost is a range posting beside its lower bound: the upper bound, the
// strictness of both, the conjunction it stands for and that
// conjunction's id, and — unless op is noCheck — one residual predicate
// inline: the conjunction's first numeric one, by attribute slot. alone
// marks a posting whose conjunction has no residual beyond it, so that a
// posting which holds, and whose conjunction is not tombstoned, is a
// match. 32 bytes.
type ivPost struct {
	hi     float64
	num    float64 // the inline check's operand
	ci     int32
	id     int32
	strict uint8 // loOpen | hiOpen | someOpen
	slot   uint8 // the inline check's attribute slot
	op     Op    // the inline check's operator, or noCheck
	alone  bool
}

// noCheck is the op of a posting that carries no inline check.
const noCheck Op = 0xff

// Strictness bits of an ivPost. loOpen and hiOpen: the bound itself is
// excluded. someOpen: some predicate the posting stands for is strict,
// which a NaN value fails whatever its bound (Value.compare) — so a
// range holds NaN exactly when someOpen is clear.
const (
	loOpen uint8 = 1 << iota
	hiOpen
	someOpen
)

// holds reports whether a non-NaN x at or above the posting's lower
// bound lo lies in the range.
func (p *ivPost) holds(lo, x float64) bool {
	if x == lo && p.strict&loOpen != 0 {
		return false
	}
	return x < p.hi || x == p.hi && p.strict&hiOpen == 0
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
		lt:    make(map[string]*boundList[int32]),
		le:    make(map[string]*boundList[int32]),
		gt:    make(map[string]*boundList[int32]),
		ge:    make(map[string]*boundList[int32]),
		eq:    make(map[string]map[float64][]int32),
		se:    make(map[string]map[string][]int32),
		known: make(map[int32]ref),
		dense: true,
	}
}

// Len returns the number of distinct live filter ids (indexed +
// wildcard + fallback).
func (ix *Index) Len() int { return len(ix.known) }

// note records one back-reference of an id and keeps the dense-id
// tracking current.
func (ix *Index) note(id int32, r ref) {
	if _, ok := ix.known[id]; !ok {
		ix.known[id] = r
	} else {
		if ix.more == nil {
			ix.more = make(map[int32][]ref)
		}
		ix.more[id] = append(ix.more[id], r)
	}
	if id < 0 || id > denseLimit {
		ix.dense = false
	} else if id > ix.maxID {
		ix.maxID = id
	}
}

// Add registers a filter under the caller's id. Ids may repeat (a
// subscription re-added is matched once per Match call regardless).
// Amortized cost is sublinear: each posting lands in its list's
// unsorted tail, and a tail is merged only when it outgrows √n — no
// other list is touched.
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
	if f == nil || f.root == nil {
		// Wildcard: a conjunction with zero predicates always matches.
		// No bound list is touched.
		ix.note(id, mkRef(refWild, len(ix.wild)))
		ix.wild = append(ix.wild, id)
		ix.wildDead = append(ix.wildDead, false)
		return
	}
	dnf := f.DNF()
	for _, conj := range dnf {
		if !postable(conj) {
			// Linear fallback evaluates the whole filter once; again no
			// bound list is touched.
			ix.note(id, mkRef(refFallback, len(ix.fallback)))
			ix.fallback = append(ix.fallback, fallbackFilter{id: id, f: f})
			return
		}
	}
	for _, conj := range dnf {
		ci := int32(len(ix.conjs))
		c := conjState{id: id, needed: 1, res: int32(len(ix.checks))}
		switch acc := accessOf(conj); acc.kind {
		case accessEq:
			ix.postEq(&conj[acc.pred], ci)
			c.nres = ix.lower(conj, acc, -1)
		case accessRange:
			p := ivPost{hi: acc.hi, ci: ci, id: id, strict: acc.strict, op: noCheck}
			k := inlineCheck(conj, &acc)
			if k >= 0 {
				p.slot, _ = internSlot(conj[k].Attr)
				p.op, p.num = conj[k].Op, conj[k].Val.Num
			}
			c.nres = ix.lower(conj, acc, k)
			p.alone = c.nres == 0
			ix.postRange(conj[acc.pred].Attr, acc, p, batch)
		default:
			// Numeric inequalities only: an equality would have been the
			// access predicate, anything else sent the filter to fallback.
			c.needed = int32(len(conj))
			for i := range conj {
				ix.insert(ix.opMap(conj[i].Op), conj[i].Attr, conj[i].Val.Num, ci, batch)
			}
		}
		ix.conjs = append(ix.conjs, c)
		if int(ci)>>6 == len(ix.dead) {
			ix.dead = append(ix.dead, 0)
		}
		ix.note(id, mkRef(refConj, int(ci)))
		ix.liveConjs++
	}
}

// access is a conjunction's access predicate: the one posting that
// stands for it in the index.
type access struct {
	kind accessKind
	pred int // accessEq: the equality; accessRange: a predicate on the attribute
	// accessRange: the tightest bounds the conjunction puts on the
	// attribute and their strictness (loOpen | hiOpen | someOpen).
	lo, hi float64
	strict uint8
}

type accessKind uint8

const (
	accessNone  accessKind = iota // no selective predicate: post and count them all
	accessEq                      // an equality, posted alone
	accessRange                   // the narrowest finite two-sided range, posted alone
)

// accessOf picks a conjunction's access predicate: its first equality,
// else the narrowest range that bounds one numeric attribute from both
// sides with finite width. One-sided conjunctions have none.
func accessOf(conj []Predicate) access {
	for i := range conj {
		if conj[i].Op == EQ && !nanBound(&conj[i]) {
			return access{kind: accessEq, pred: i}
		}
	}
	best, bestWidth := access{}, math.Inf(1)
	for i := range conj {
		p := &conj[i]
		if p.Val.Kind != Number || (p.Op != GT && p.Op != GE) {
			continue
		}
		a, ok := rangeOn(conj, p.Attr)
		if w := a.hi - a.lo; ok && w < bestWidth {
			a.kind, a.pred = accessRange, i
			best, bestWidth = a, w
		}
	}
	return best
}

// rangeOn returns the tightest bounds the conjunction's numeric
// inequalities put on attr, a bound shared by a strict and a closed
// predicate being strict, and whether any of them is strict; ok is false
// when one has a NaN bound, which no range can stand for.
func rangeOn(conj []Predicate, attr string) (a access, ok bool) {
	a.lo, a.hi = math.Inf(-1), math.Inf(1)
	for j := range conj {
		q := &conj[j]
		if q.Attr != attr || !inequality(q) {
			continue
		}
		if nanBound(q) {
			return a, false
		}
		b := q.Val.Num
		if q.Op == GT || q.Op == LT {
			a.strict |= someOpen
		}
		switch q.Op {
		case GT, GE:
			if b > a.lo {
				a.lo, a.strict = b, a.strict&^loOpen
			}
			if b == a.lo && q.Op == GT {
				a.strict |= loOpen
			}
		case LT, LE:
			if b < a.hi {
				a.hi, a.strict = b, a.strict&^hiOpen
			}
			if b == a.hi && q.Op == LT {
				a.strict |= hiOpen
			}
		}
	}
	return a, true
}

// inequality reports a numeric <, <=, > or >= predicate.
func inequality(p *Predicate) bool { return p.Val.Kind == Number && p.Op <= GE }

// absorbs reports whether the access posting stands for predicate i of
// the conjunction: the equality itself, or every numeric inequality on
// the range's attribute. The rest are the conjunction's residual.
func (a *access) absorbs(conj []Predicate, i int) bool {
	if a.kind == accessEq {
		return i == a.pred
	}
	return conj[i].Attr == conj[a.pred].Attr && inequality(&conj[i])
}

// nanBound reports a numeric predicate whose bound is NaN. Value.compare
// makes such a bound equal to every number, which no sorted list or hash
// map can express.
func nanBound(p *Predicate) bool { return p.Val.Kind == Number && p.Val.Num != p.Val.Num }

// postable reports whether a conjunction can be posted: under its access
// predicate with every residual on an attribute the slot table holds, or
// counted whole.
func postable(conj []Predicate) bool {
	acc := accessOf(conj)
	if acc.kind == accessNone {
		return countable(conj)
	}
	for i := range conj {
		if !acc.absorbs(conj, i) {
			if _, ok := internSlot(conj[i].Attr); !ok {
				return false
			}
		}
	}
	return true
}

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

// inlineCheck returns the residual predicate a range posting carries
// itself — the conjunction's first numeric one — or -1 when it has none.
func inlineCheck(conj []Predicate, acc *access) int {
	for i := range conj {
		if !acc.absorbs(conj, i) && conj[i].Val.Kind == Number {
			return i
		}
	}
	return -1
}

// lower appends the conjunction's residual — every predicate its access
// posting does not stand for, and not predicate inline, which the
// posting carries — to the check slab, returning how many. postable has
// interned every name it needs.
func (ix *Index) lower(conj []Predicate, acc access, inline int) int32 {
	n := int32(0)
	for i := range conj {
		if i == inline || acc.absorbs(conj, i) {
			continue
		}
		p := &conj[i]
		slot, _ := internSlot(p.Attr)
		c := check{slot: slot, op: p.Op, kind: p.Val.Kind, num: p.Val.Num}
		if p.Val.Kind == String {
			c.str = int32(len(ix.strs))
			ix.strs = append(ix.strs, p.Val.Str)
		}
		ix.checks = append(ix.checks, c)
		n++
	}
	return n
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
func (ix *Index) postRange(attr string, acc access, p ivPost, batch bool) {
	exp := -ivMaxExp // empty and zero-width ranges: the narrowest class
	if width := acc.hi - acc.lo; width > 0 {
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
	c.add(ix, acc.lo, p, batch)
}

// opMap returns the bound-list map for an inequality operator.
func (ix *Index) opMap(op Op) map[string]*boundList[int32] {
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
func (ix *Index) insert(m map[string]*boundList[int32], attr string, bound float64, ci int32, batch bool) {
	bl := m[attr]
	if bl == nil {
		bl = &boundList[int32]{}
		m[attr] = bl
	}
	bl.add(ix, bound, ci, batch)
}

// add appends one posting to the list's tail, merging when the tail
// outgrows √(run length) — unless the caller batches, in which case the
// merge is deferred to Flush.
func (bl *boundList[P]) add(ix *Index, bound float64, p P, batch bool) {
	bl.tailBounds = append(bl.tailBounds, bound)
	bl.tailPost = append(bl.tailPost, p)
	if !batch && bl.tailOverflow() {
		bl.merge(ix)
	}
}

// tailOverflow reports whether the tail has outgrown √(run length).
// Small lists merge eagerly past a constant floor so lookups on young
// attributes stay mostly-sorted.
func (bl *boundList[P]) tailOverflow() bool {
	t := len(bl.tailBounds)
	if t < 16 {
		return false
	}
	return t*t > len(bl.bounds)
}

// merge folds the unsorted tail into the sorted run: sort the tail, then
// one backward in-place merge — O(n + t log t), the single sort this
// list pays for the last t inserts.
func (bl *boundList[P]) merge(ix *Index) {
	t := len(bl.tailBounds)
	if t == 0 {
		return
	}
	ix.merges++
	sort.Sort(byBound[P]{bl.tailBounds, bl.tailPost})
	n := len(bl.bounds)
	bl.bounds = append(bl.bounds, bl.tailBounds...)
	bl.post = append(bl.post, bl.tailPost...)
	// Backward merge: dest k always sits at or beyond read index i, so
	// writing into the same array is safe.
	i, j := n-1, t-1
	for k := n + t - 1; j >= 0; k-- {
		if i >= 0 && bl.bounds[i] > bl.tailBounds[j] {
			bl.bounds[k] = bl.bounds[i]
			bl.post[k] = bl.post[i]
			i--
		} else {
			bl.bounds[k] = bl.tailBounds[j]
			bl.post[k] = bl.tailPost[j]
			j--
		}
	}
	bl.tailBounds = bl.tailBounds[:0]
	bl.tailPost = bl.tailPost[:0]
}

// Flush merges every pending tail into its sorted run (each touched
// list sorted once). AddBatch calls it; callers that interleave Add
// bursts with latency-critical matching may call it at a quiet moment.
func (ix *Index) Flush() {
	for _, m := range []map[string]*boundList[int32]{ix.lt, ix.le, ix.gt, ix.ge} {
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
	r, ok := ix.known[id]
	if !ok {
		return false
	}
	delete(ix.known, id)
	ix.drop(r)
	if more, ok := ix.more[id]; ok {
		delete(ix.more, id)
		for _, r := range more {
			ix.drop(r)
		}
	}
	if ix.deadWild*2 > len(ix.wild) {
		ix.compactWild()
	}
	if ix.deadFallback*2 > len(ix.fallback) {
		ix.compactFallback()
	}
	if ix.deadConjs > 64 && ix.deadConjs > ix.liveConjs {
		ix.compact()
	}
	return true
}

// drop tombstones what one back-reference points at.
func (ix *Index) drop(r ref) {
	switch i := r.index(); r.kind() {
	case refConj:
		ix.conjs[i].needed = 0
		ix.dead[i>>6] |= 1 << (i & 63)
		ix.liveConjs--
		ix.deadConjs++
	case refWild:
		if !ix.wildDead[i] {
			ix.wildDead[i] = true
			ix.deadWild++
		}
	case refFallback:
		if ix.fallback[i].f != nil {
			ix.fallback[i].f = nil
			ix.deadFallback++
		}
	}
}

// moveRef rewrites an id's back-reference when compaction moves the slot
// it points at.
func (ix *Index) moveRef(id int32, from, to ref) {
	if ix.known[id] == from {
		ix.known[id] = to
	} else if more := ix.more[id]; more != nil {
		more[slices.Index(more, from)] = to
	}
}

// compactWild squeezes tombstoned wildcard slots out, rewriting the
// surviving ids' back-references (add order preserved; a slot only
// moves down, so a rewritten reference never collides with one still
// to be rewritten).
func (ix *Index) compactWild() {
	k := 0
	for i, id := range ix.wild {
		if ix.wildDead[i] {
			continue
		}
		ix.moveRef(id, mkRef(refWild, i), mkRef(refWild, k))
		ix.wild[k] = id
		ix.wildDead[k] = false
		k++
	}
	ix.wild = ix.wild[:k]
	ix.wildDead = ix.wildDead[:k]
	ix.deadWild = 0
}

// compactFallback squeezes tombstoned fallback slots out, rewriting the
// surviving ids' back-references (add order preserved).
func (ix *Index) compactFallback() {
	k := 0
	for i, fb := range ix.fallback {
		if fb.f == nil {
			continue
		}
		ix.moveRef(fb.id, mkRef(refFallback, i), mkRef(refFallback, k))
		ix.fallback[k] = fb
		k++
	}
	clear(ix.fallback[k:])
	ix.fallback = ix.fallback[:k]
	ix.deadFallback = 0
}

// compact squeezes tombstoned conjunctions out of every structure in one
// O(conjs + predicates) sweep, restoring the memory and match cost of a
// fresh build. Amortized across the removals that triggered it, the
// sweep is O(predicates per removal).
func (ix *Index) compact() {
	remap := make([]int32, len(ix.conjs))
	live, nc, ns := int32(0), int32(0), int32(0)
	for i, c := range ix.conjs {
		if c.needed == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = live
		// The slabs are in add order, so a live run only ever moves down.
		run := ix.checks[c.res : c.res+c.nres]
		for j := range run {
			if run[j].kind == String {
				ix.strs[ns] = ix.strs[run[j].str]
				run[j].str = ns
				ns++
			}
		}
		copy(ix.checks[nc:], run)
		c.res = nc
		nc += c.nres
		ix.conjs[live] = c
		live++
	}
	ix.conjs = ix.conjs[:live]
	ix.dead = ix.dead[:(live+63)>>6]
	clear(ix.dead)
	ix.checks = ix.checks[:nc]
	clear(ix.strs[ns:])
	ix.strs = ix.strs[:ns]

	counted := func(p *int32) *int32 { return p }
	for _, m := range []map[string]*boundList[int32]{ix.lt, ix.le, ix.gt, ix.ge} {
		for attr, bl := range m {
			if bl.compact(ix, remap, counted) == 0 {
				delete(m, attr)
			}
		}
	}
	ranged := func(p *ivPost) *int32 { return &p.ci }
	for attr, classes := range ix.iv {
		classes = slices.DeleteFunc(classes, func(c *ivClass) bool { return c.compact(ix, remap, ranged) == 0 })
		if len(classes) == 0 {
			delete(ix.iv, attr)
		} else {
			ix.iv[attr] = classes
		}
	}
	compactConjMap(ix.eq, remap)
	compactConjMap(ix.se, remap)
	// Every id still known is live, and so is each of its conjunctions.
	for id, r := range ix.known {
		if r.kind() == refConj {
			ix.known[id] = mkRef(refConj, int(remap[r.index()]))
		}
	}
	for _, more := range ix.more {
		for j, r := range more {
			if r.kind() == refConj {
				more[j] = mkRef(refConj, int(remap[r.index()]))
			}
		}
	}
	ix.deadConjs = 0
}

// compact drops the list's tombstoned postings and renumbers the rest
// (ci locates a posting's conjunction index), returning how many
// survive.
func (bl *boundList[P]) compact(ix *Index, remap []int32, ci func(*P) *int32) int {
	if len(bl.tailBounds) > 0 {
		bl.merge(ix) // fold the tail first so one filtered run remains
		ix.merges--  // bookkeeping merge, not an insert-driven one
	}
	k := 0
	for i := range bl.bounds {
		if nc := remap[*ci(&bl.post[i])]; nc >= 0 {
			bl.bounds[k] = bl.bounds[i]
			bl.post[k] = bl.post[i]
			*ci(&bl.post[k]) = nc
			k++
		}
	}
	bl.bounds = bl.bounds[:k]
	bl.post = bl.post[:k]
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

// byBound sorts parallel bound/posting slices by bound.
type byBound[P any] struct {
	bounds []float64
	post   []P
}

func (s byBound[P]) Len() int           { return len(s.bounds) }
func (s byBound[P]) Less(i, j int) bool { return s.bounds[i] < s.bounds[j] }
func (s byBound[P]) Swap(i, j int) {
	s.bounds[i], s.bounds[j] = s.bounds[j], s.bounds[i]
	s.post[i], s.post[j] = s.post[j], s.post[i]
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
	// first conjunction with a residual resolves it.
	msg        Iterable
	resolvedAt uint64

	// visit bound once so Match passes a preallocated callback to Each.
	visitor func(name string, v Value)

	// The message resolved by attribute slot (program.go), stamped like
	// everything else here.
	attrs     []resolvedAttr
	attrEpoch uint64
	resolver  func(name string, v Value)
}

// tally is one counted conjunction's count of satisfied postings, live
// while at equals the low word of the scratch's epoch (the tallies are
// cleared when that word wraps).
type tally struct {
	at uint32
	n  int32
}

// Match returns the ids whose filters match the attributes, each at most
// once: indexed conjunctions as they are decided, then wildcards in add
// order, then fallback filters in add order.
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

// visit processes one message attribute: it bumps the counted
// conjunction of every satisfied inequality posting (binary search over
// each sorted run, linear scan over its √n-bounded tail) and decides the
// access-posted conjunction of every equality posting it selects and
// every range posting that holds it.
func (s *MatchScratch) visit(name string, v Value) {
	ix := s.ix
	if v.Kind != Number {
		if m := ix.se[name]; m != nil {
			s.decideAll(m[v.Str])
		}
		return
	}
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
		s.bumpAll(bl.post[i:])
		for i, b := range bl.tailBounds {
			if b > x {
				s.bump(bl.tailPost[i])
			}
		}
	}
	if bl := ix.le[name]; bl != nil {
		// Satisfied: bound >= x.
		s.bumpAll(bl.post[sort.SearchFloat64s(bl.bounds, x):])
		for i, b := range bl.tailBounds {
			if b >= x {
				s.bump(bl.tailPost[i])
			}
		}
	}
	if bl := ix.gt[name]; bl != nil {
		// Satisfied: bound < x → prefix below x.
		s.bumpAll(bl.post[:sort.SearchFloat64s(bl.bounds, x)])
		for i, b := range bl.tailBounds {
			if b < x {
				s.bump(bl.tailPost[i])
			}
		}
	}
	if bl := ix.ge[name]; bl != nil {
		// Satisfied: bound <= x → prefix through x.
		hi := sort.SearchFloat64s(bl.bounds, x)
		for ; hi < len(bl.bounds) && bl.bounds[hi] == x; hi++ {
		}
		s.bumpAll(bl.post[:hi])
		for i, b := range bl.tailBounds {
			if b <= x {
				s.bump(bl.tailPost[i])
			}
		}
	}
	if m := ix.eq[name]; m != nil {
		s.decideAll(m[x])
	}
	if math.IsInf(x, 0) {
		return // no posted range holds an infinity: its width is finite
	}
	for _, c := range ix.iv[name] {
		// Candidates: lower bound in [x − span, x]. A range of this class
		// that holds x cannot start earlier; its posting settles the rest.
		lo := x - c.span
		for i := sort.SearchFloat64s(c.bounds, lo); i < len(c.bounds) && c.bounds[i] <= x; i++ {
			if p := &c.post[i]; p.holds(c.bounds[i], x) {
				s.settle(p)
			}
		}
		for i, b := range c.tailBounds {
			if p := &c.tailPost[i]; b >= lo && b <= x && p.holds(b, x) {
				s.settle(p)
			}
		}
	}
}

// visitNaN is visit for a NaN number. Value.compare places NaN neither
// below nor above any bound, so it satisfies every <=, >= and ==
// predicate on the attribute and no < or >: a range holds it exactly
// when every predicate it stands for is closed.
func (s *MatchScratch) visitNaN(name string) {
	ix := s.ix
	for _, bl := range [...]*boundList[int32]{ix.le[name], ix.ge[name]} {
		if bl != nil {
			s.bumpAll(bl.post)
			s.bumpAll(bl.tailPost)
		}
	}
	for _, cis := range ix.eq[name] {
		s.decideAll(cis)
	}
	for _, c := range ix.iv[name] {
		for _, posts := range [...][]ivPost{c.post, c.tailPost} {
			for i := range posts {
				if posts[i].strict&someOpen == 0 {
					s.settle(&posts[i])
				}
			}
		}
	}
}

func (s *MatchScratch) bumpAll(cis []int32) {
	for _, ci := range cis {
		s.bump(ci)
	}
}

// bump credits one satisfied posting to a counted conjunction, emitting
// its id when the count completes.
func (s *MatchScratch) bump(ci int32) {
	t := &s.tally[ci]
	if at := uint32(s.epoch); t.at != at {
		*t = tally{at: at}
	}
	t.n++
	if c := &s.ix.conjs[ci]; t.n == c.needed {
		s.emit(c.id)
	}
}

func (s *MatchScratch) decideAll(cis []int32) {
	for _, ci := range cis {
		s.decide(ci)
	}
}

// settle decides the conjunction of a range posting that holds the
// message's value: the posting's inline check first, then — for a
// posting that decides alone — the tombstone bit, else the rest of the
// residual through decide.
func (s *MatchScratch) settle(p *ivPost) {
	if p.op != noCheck {
		if s.resolvedAt != s.epoch {
			s.resolve()
		}
		if !s.holdsNum(p.slot, p.op, p.num) {
			return
		}
	}
	if !p.alone {
		s.decide(p.ci)
	} else if s.ix.dead[p.ci>>6]&(1<<(p.ci&63)) == 0 {
		s.emit(p.id)
	}
}

// resolve resolves the message being matched by slot; callers test
// resolvedAt first, so it runs once per match.
func (s *MatchScratch) resolve() {
	s.resolvedAt = s.epoch
	s.Resolve(s.msg)
}

// decide settles an access-posted conjunction whose posting holds: it
// is a match unless removed or one of its residual checks fails (a range
// posting has already passed the check it carries, which the slab does
// not repeat).
func (s *MatchScratch) decide(ci int32) {
	ix := s.ix
	c := &ix.conjs[ci]
	if c.needed == 0 {
		return
	}
	if c.nres > 0 {
		if s.resolvedAt != s.epoch {
			s.resolve()
		}
		run := ix.checks[c.res : c.res+c.nres]
		for i := range run {
			if !s.holdsCheck(&run[i], ix.strs) {
				return
			}
		}
	}
	s.emit(c.id)
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
