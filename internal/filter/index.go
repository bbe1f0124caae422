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

// Index is a matching index over a set of filters — the classic
// content-based pub/sub structure, with one rule: a conjunction is
// *posted* under one of its predicates, its *access predicate*, a
// message's attributes select the postings that hold, and the
// conjunction is decided from flat memory the posting leads to.
//
//   - An equality (numeric or string) is posted in a hash map per
//     attribute: a message value selects exactly the conjunctions that
//     name it.
//   - Else the narrowest finite two-sided numeric range the conjunction
//     puts on one attribute ("A1 > a && A1 < a+w") is posted by its lower
//     bound, in that attribute's list for the range's *width class*
//     e = Frexp(hi−lo), clamped to ±ivMaxExp. Every range of class e is
//     narrower than 2^e, so the ranges of the class that contain x have
//     their lower bound in [x − 2^e, x]: one binary search per class,
//     then at most about twice the ranges that really hold x. Classes
//     keep one wide range among ten thousand narrow ones from widening
//     everyone's window. The posting carries the range's upper bound and
//     both strictness bits beside its lower bound, so the window's
//     over-selection is rejected during the sequential scan.
//
// Whatever else a posted conjunction says — further ranges, string
// equalities, !=, string inequalities — is its *residual*, lowered at
// Add into a run of checks in one flat slab (Index.checks: attribute
// slot, operator, operand), evaluated against the message resolved by
// slot (MatchScratch.Resolve, once per match, on the first residual
// needed). Matching reads no *Filter for a posted conjunction.
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
// A filter with a conjunction the index cannot post — one-sided (the
// paper's "A1 < x && A2 < y"), a wildcard, only != or string
// inequalities, a NaN bound, or a residual on an attribute past the slot
// table's cap — is a *rest* row: the whole filter, in one Scan over
// packed bound columns (scan.go), decided in one branch-free pass per
// match, with the rows it flags confirmed by Filter.MatchResolved. A
// one-sided predicate holds for about half of any population, so no
// posting narrows such filters; a linear pass over float32 columns is
// the cheapest answer for them. So Match is always equivalent to
// evaluating every filter directly — including on NaN attribute values,
// which Value.compare places neither below nor above any bound.
//
// The index is built for churn: the subscription population it serves is
// expected to mutate continuously, so every mutation is incremental and
// sublinear.
//
//   - Add inserts each range posting into a small unsorted tail behind
//     its width class's sorted run; a tail is merged into its run only
//     when it outgrows √n (amortized o(n) per insert). Only the class a
//     range lands in is ever touched: an Add on attribute "a" never
//     re-sorts attribute "b", and rest rows touch no class at all.
//   - Remove(id) tombstones the id's conjunctions through per-id
//     back-references (id → kind-tagged indices) without touching the
//     postings — in the tombstone bitset, or by killing the rest row; the
//     postings and the check slab are compacted in one O(P) sweep only
//     when dead conjunctions outnumber live ones, which clears the
//     bitset, and the rest when its dead rows do.
//   - AddBatch indexes a whole population sorting each touched class
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
	eq     map[string]map[float64][]int32
	se     map[string]map[string][]int32 // string equality
	// iv holds the two-sided ranges posted as access predicates: per
	// attribute, one list per width class. Made on the first range (most
	// tables never see one).
	iv map[string][]*ivClass

	// rest holds the filters the index does not post, row for restRows
	// entry, in add order; deadRest counts its killed rows.
	rest     Scan
	restRows []restRow
	deadRest int

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
	// only touched classes ever merge).
	merges int
}

// denseLimit bounds the id-indexed stamp slice; ids beyond it (or
// negative) use the map fallback instead of a multi-megabyte slice.
const denseLimit = 1 << 20

// conjState is one posted conjunction: the caller's id for the owning
// filter, and where its residual checks are in Index.checks (all but the
// one a range posting carries). Remove tombstones it in Index.dead.
type conjState struct {
	id   int32
	res  int32
	nres int32
}

// restRow is one filter of the rest scan and the caller's id for it.
type restRow struct {
	id int32
	f  *Filter
}

// ref is one back-reference of an id: an index into Index.conjs or
// Index.restRows, with the kind of structure in its low bit.
type ref uint32

const (
	refConj ref = iota
	refRest
)

func mkRef(kind ref, i int) ref { return ref(i)<<1 | kind }
func (r ref) kind() ref         { return r & 1 }
func (r ref) index() int32      { return int32(r >> 1) }

// ivClass is one attribute's ranges of one width class: postings sorted
// by lower bound plus an unsorted insertion tail, merged into the run
// when it outgrows √(run length), so inserts stay cheap and lookups stay
// logarithmic plus a bounded linear scan. Every range in it is narrower
// than span, a power of two — except that the top class (2^ivMaxExp and
// everything wider) has span +Inf, and the bottom one takes everything
// narrower, empty ranges included.
type ivClass struct {
	bounds []float64
	post   []ivPost
	// unsorted tail of recent inserts
	tailBounds []float64
	tailPost   []ivPost
	span       float64
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

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		eq:    make(map[string]map[float64][]int32),
		se:    make(map[string]map[string][]int32),
		known: make(map[int32]ref),
		dense: true,
	}
}

// Len returns the number of distinct live filter ids (posted or rest).
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
// Amortized cost is sublinear: a range posting lands in its class's
// unsorted tail, and a tail is merged only when it outgrows √n — no
// other class is touched.
//
// Mutations (Add, AddBatch, Remove) must be serialized with each other
// and exclude concurrent matchers.
func (ix *Index) Add(id int32, f *Filter) {
	ix.addOne(id, f, false)
}

// AddBatch registers many filters at once, deferring every run merge so
// each touched class is sorted exactly once at the end — the bulk-build
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

// Posts reports whether an index posts every conjunction of f under an
// access predicate, rather than keeping f as a row of its rest scan.
func Posts(f *Filter) bool {
	if f == nil {
		return false
	}
	switch n := f.root.(type) {
	case nil:
		return false
	case conjNode: // the common shapes, without DNF's allocation
		return postable(n.preds)
	case predNode:
		return postable([]Predicate{n.p})
	}
	return posts(f.DNF())
}

func posts(dnf [][]Predicate) bool {
	for _, conj := range dnf {
		if !postable(conj) {
			return false
		}
	}
	return len(dnf) > 0
}

func (ix *Index) addOne(id int32, f *Filter, batch bool) {
	var dnf [][]Predicate
	if f != nil && f.root != nil {
		dnf = f.DNF()
	}
	if !posts(dnf) {
		ix.note(id, mkRef(refRest, len(ix.restRows)))
		ix.rest.Add(f)
		ix.restRows = append(ix.restRows, restRow{id: id, f: f})
		return
	}
	for _, conj := range dnf {
		ci := int32(len(ix.conjs))
		c := conjState{id: id, res: int32(len(ix.checks))}
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
	accessNone  accessKind = iota // no selective predicate: a rest row
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
// predicate, with every residual on an attribute the slot table holds.
func postable(conj []Predicate) bool {
	acc := accessOf(conj)
	if acc.kind == accessNone {
		return false
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

// add appends one posting to the class's tail, merging when the tail
// outgrows √(run length) — unless the caller batches, in which case the
// merge is deferred to Flush.
func (c *ivClass) add(ix *Index, bound float64, p ivPost, batch bool) {
	c.tailBounds = append(c.tailBounds, bound)
	c.tailPost = append(c.tailPost, p)
	if !batch && c.tailOverflow() {
		c.merge(ix)
	}
}

// tailOverflow reports whether the tail has outgrown √(run length).
// Small classes merge eagerly past a constant floor so lookups on young
// attributes stay mostly-sorted.
func (c *ivClass) tailOverflow() bool {
	t := len(c.tailBounds)
	if t < 16 {
		return false
	}
	return t*t > len(c.bounds)
}

// merge folds the unsorted tail into the sorted run: sort the tail, then
// one backward in-place merge — O(n + t log t), the single sort this
// class pays for the last t inserts.
func (c *ivClass) merge(ix *Index) {
	t := len(c.tailBounds)
	if t == 0 {
		return
	}
	ix.merges++
	sort.Sort(byBound{c.tailBounds, c.tailPost})
	n := len(c.bounds)
	c.bounds = append(c.bounds, c.tailBounds...)
	c.post = append(c.post, c.tailPost...)
	// Backward merge: dest k always sits at or beyond read index i, so
	// writing into the same array is safe.
	i, j := n-1, t-1
	for k := n + t - 1; j >= 0; k-- {
		if i >= 0 && c.bounds[i] > c.tailBounds[j] {
			c.bounds[k] = c.bounds[i]
			c.post[k] = c.post[i]
			i--
		} else {
			c.bounds[k] = c.tailBounds[j]
			c.post[k] = c.tailPost[j]
			j--
		}
	}
	c.tailBounds = c.tailBounds[:0]
	c.tailPost = c.tailPost[:0]
}

// Flush merges every pending tail into its sorted run (each touched
// class sorted once). AddBatch calls it; callers that interleave Add
// bursts with latency-critical matching may call it at a quiet moment.
func (ix *Index) Flush() {
	for _, classes := range ix.iv {
		for _, c := range classes {
			c.merge(ix)
		}
	}
}

// Remove deletes every registration of an id — posted conjunctions and
// rest rows — and reports whether the id was present. Both are
// tombstoned through the id's back-references without touching the
// postings; postings are compacted in one sweep only when dead
// conjunctions outnumber live ones, and the rest when its dead rows do.
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
	if ix.deadRest*2 > len(ix.restRows) {
		ix.compactRest()
	}
	if ix.deadConjs > 64 && ix.deadConjs > ix.liveConjs {
		ix.compact()
	}
	return true
}

// drop tombstones what one back-reference points at.
func (ix *Index) drop(r ref) {
	i := r.index()
	if r.kind() == refRest {
		ix.rest.Kill(int(i))
		ix.deadRest++
		return
	}
	ix.dead[i>>6] |= 1 << (i & 63)
	ix.liveConjs--
	ix.deadConjs++
}

// deadConj reports whether conjunction ci is tombstoned.
func (ix *Index) deadConj(ci int32) bool { return ix.dead[ci>>6]&(1<<(ci&63)) != 0 }

// moveRef rewrites an id's back-reference when compaction moves the slot
// it points at.
func (ix *Index) moveRef(id int32, from, to ref) {
	if ix.known[id] == from {
		ix.known[id] = to
	} else if more := ix.more[id]; more != nil {
		more[slices.Index(more, from)] = to
	}
}

// compactRest squeezes the killed rows out of the rest scan, rewriting
// the surviving ids' back-references (add order preserved; a row only
// moves down, so a rewritten reference never collides with one still to
// be rewritten).
func (ix *Index) compactRest() {
	k := 0
	for i, row := range ix.restRows {
		if ix.rest.state[i] == rowDead {
			continue
		}
		ix.moveRef(row.id, mkRef(refRest, i), mkRef(refRest, k))
		ix.restRows[k] = row
		k++
	}
	clear(ix.restRows[k:])
	ix.restRows = ix.restRows[:k]
	ix.rest.Compact()
	ix.deadRest = 0
}

// compact squeezes tombstoned conjunctions out of every structure in one
// O(conjs + predicates) sweep, restoring the memory and match cost of a
// fresh build. Amortized across the removals that triggered it, the
// sweep is O(predicates per removal).
func (ix *Index) compact() {
	remap := make([]int32, len(ix.conjs))
	live, nc, ns := int32(0), int32(0), int32(0)
	for i, c := range ix.conjs {
		if ix.deadConj(int32(i)) {
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

// compact drops the class's tombstoned postings and renumbers the rest,
// returning how many survive.
func (c *ivClass) compact(ix *Index, remap []int32) int {
	if len(c.tailBounds) > 0 {
		c.merge(ix) // fold the tail first so one filtered run remains
		ix.merges-- // bookkeeping merge, not an insert-driven one
	}
	k := 0
	for i := range c.bounds {
		if nc := remap[c.post[i].ci]; nc >= 0 {
			c.bounds[k] = c.bounds[i]
			c.post[k] = c.post[i]
			c.post[k].ci = nc
			k++
		}
	}
	c.bounds = c.bounds[:k]
	c.post = c.post[:k]
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
type byBound struct {
	bounds []float64
	post   []ivPost
}

func (s byBound) Len() int           { return len(s.bounds) }
func (s byBound) Less(i, j int) bool { return s.bounds[i] < s.bounds[j] }
func (s byBound) Swap(i, j int) {
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
	// Output dedup: dense ids stamp a slice, sparse ids a map.
	emittedAt  []uint64
	emittedMap map[int32]uint64
	out        []int32
	// rows is ScanRows' output.
	rows []int32

	// The message being matched, and the epoch it was resolved in: the
	// first conjunction with a residual, or the rest scan, resolves it.
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

// Match returns the ids whose filters match the attributes, each at most
// once: posted conjunctions as they are decided, then rest rows in add
// order.
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
	if ix.dense {
		s.emittedAt = grow(s.emittedAt, int(ix.maxID)+1)
	} else if s.emittedMap == nil {
		s.emittedMap = make(map[int32]uint64)
	}
	s.out = s.out[:0]
	a.Each(s.visitor)

	if len(ix.restRows) > ix.deadRest {
		if s.resolvedAt != s.epoch {
			s.resolve()
		}
		for _, r := range s.ScanRows(&ix.rest) {
			row := &ix.restRows[r>>1]
			if r&1 == 0 || row.f.MatchResolved(s, a) {
				s.emit(row.id)
			}
		}
	}
	s.msg = nil
	return s.out
}

// visit processes one message attribute: it decides the conjunction of
// every equality posting it selects and every range posting that holds
// it (binary search over each class's sorted run, linear scan over its
// √n-bounded tail).
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
	} else if !s.ix.deadConj(p.ci) {
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
	if ix.deadConj(ci) {
		return
	}
	c := &ix.conjs[ci]
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
