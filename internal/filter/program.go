package filter

import (
	"sync"
	"sync/atomic"
)

// A filter that is one conjunction of numeric comparisons — the paper's
// "A1<x1 && A2<x2" and overwhelmingly the common shape — is lowered,
// where it is built, into a program: its predicate list (already flat
// and immutable in the AST) plus, per predicate, the slot its attribute
// name interns to. A table scan then resolves a message's numeric
// attributes into slot-indexed scratch once (MatchScratch.Resolve) and
// evaluates every entry's program with one array load and one float
// comparison per predicate (Filter.MatchResolved), where Filter.Match
// walks the node and Attrs interfaces and copies a Value per predicate.
// Everything else — disjunctions, NE, string operands, conjunctions
// longer than maxProgPreds — has no program and evaluates through
// Filter.Match, so MatchResolved is Match for every filter.
//
// A linear scan over many filters goes one step further (scan.go): a
// Scan lowers each program once more, into float32 bound columns by
// (slot, side), and MatchScratch.ScanRows decides every row of a table
// in one branch-free pass over those columns. MatchResolved stays the
// one exact evaluator: it confirms the few rows the columns cannot
// decide (a value within a float32 ulp of a bound, a filter with no
// program). Routing table sources without an index, the index's own
// rest rows and the publication accounting match this way.
//
// The program costs a filter eight bytes and no allocation: brokers of a
// live overlay each hold their own decoded copy of every subscription's
// filter, and a separate (attribute, op, bound) array per copy measured
// +8% live heap on a 10k-subscription overlay.
//
// The match index (index.go) lowers a posted conjunction with the same
// slots, but into its own slab and only what its posting does not
// already say: the conjunction's residual, one 16-byte check per
// predicate (any operator, numeric or string operand). A range posting carries the range's own
// predicates and the first numeric residual check itself, in 32 bytes
// (slot, operator and operand beside the range's bounds, the
// conjunction index and the caller's id), so on fanout_match's shape
// the slab holds nothing: the 16 bytes the posting grew are the 16 the
// slab lost, and the tombstone bitset adds one bit a conjunction. The
// per-id back-reference shrank from an 80-byte record behind a map slot
// to one 8-byte map slot. Together that is 150.6 → 79.5 → 77.5 index
// bytes per fanout-shaped conjunction (TestIndexBytesPerConjunction pins
// ≤ 140).

// maxProgPreds bounds a program's length so its slots pack beside the
// length into one word of the Filter.
const maxProgPreds = 7

// program is the lowered form of a Filter: predicate i of the root
// conjunction reads attribute slot[i]. n == 0 means "not lowered".
type program struct {
	n    uint8
	slot [maxProgPreds]uint8
}

// maxSlots caps the interned attribute names: a slot fits a byte, and
// the table — which only grows — stays bounded whatever names remote
// subscribers put in their filters. Filters naming attributes past the
// cap are simply not lowered.
const maxSlots = 256

// slots interns attribute names to dense slot numbers, process-wide so
// that every program and every scratch agree on them. Readers load the
// current table without locking; a writer publishes an extended copy
// (names are few and arrive once).
var slots struct {
	mu sync.Mutex // serializes writers
	t  atomic.Pointer[slotTable]
}

// slotTable is one published generation of the interned names: the slot
// of each name, and the name of each slot — the one string the decoder
// of a binary filter (wire.go) hands to every predicate naming it.
type slotTable struct {
	of   map[string]uint8
	name []string
}

// slotOf returns the slot of an interned attribute name.
func slotOf(name string) (uint8, bool) {
	t := slots.t.Load()
	if t == nil {
		return 0, false
	}
	s, ok := t.of[name]
	return s, ok
}

// internedName returns the interned string equal to b, without
// allocating, when b names a slot.
func internedName(b []byte) (string, bool) {
	t := slots.t.Load()
	if t == nil {
		return "", false
	}
	s, ok := t.of[string(b)]
	if !ok {
		return "", false
	}
	return t.name[s], true
}

// internSlot returns the attribute name's slot, assigning the next free
// one to a new name; ok is false when the table is full.
func internSlot(name string) (slot uint8, ok bool) {
	if s, ok := slotOf(name); ok {
		return s, true
	}
	slots.mu.Lock()
	defer slots.mu.Unlock()
	var old slotTable
	if t := slots.t.Load(); t != nil {
		old = *t
	}
	if s, ok := old.of[name]; ok {
		return s, true
	}
	if len(old.name) >= maxSlots {
		return 0, false
	}
	grown := slotTable{
		of:   make(map[string]uint8, len(old.name)+1),
		name: append(old.name[:len(old.name):len(old.name)], name),
	}
	for k, v := range old.of {
		grown.of[k] = v
	}
	grown.of[name] = uint8(len(old.name))
	slots.t.Store(&grown)
	return uint8(len(old.name)), true
}

// newFilter wraps an expression tree, lowering it when it qualifies.
// Every constructor of a non-wildcard Filter goes through here.
func newFilter(root node) *Filter {
	f := &Filter{root: root}
	var preds []Predicate
	switch n := root.(type) {
	case conjNode:
		preds = n.preds
	case predNode:
		preds = []Predicate{n.p}
	}
	if len(preds) == 0 || len(preds) > maxProgPreds {
		return f
	}
	for i := range preds {
		if preds[i].Val.Kind != Number || preds[i].Op > EQ {
			return f
		}
	}
	var p program
	for i := range preds {
		s, ok := internSlot(preds[i].Attr)
		if !ok {
			return f
		}
		p.slot[i] = s
	}
	p.n = uint8(len(preds))
	f.prog = p
	return f
}

// resolvedAttr is one attribute slot of a resolved message: a number
// while its stamp equals the scratch's current resolve epoch, a string
// while it equals the epoch with strStamp set — so a numeric program
// sees a string attribute as absent, as Value.compare has it.
type resolvedAttr struct {
	num float64
	str string
	at  uint64
}

// strStamp marks a resolved string attribute's stamp.
const strStamp = 1 << 63

// Resolve loads a message's attributes into the scratch by slot, once
// per message, for any number of MatchResolved calls and index checks.
// Names no program or check mentions are skipped: no lowered predicate
// can match them.
func (s *MatchScratch) Resolve(a Iterable) {
	if s.resolver == nil {
		s.resolver = s.resolveAttr
	}
	s.attrEpoch++
	a.Each(s.resolver)
}

func (s *MatchScratch) resolveAttr(name string, v Value) {
	slot, ok := slotOf(name)
	if !ok {
		return
	}
	if int(slot) >= len(s.attrs) {
		s.attrs = append(s.attrs, make([]resolvedAttr, int(slot)+1-len(s.attrs))...)
	}
	if v.Kind == Number {
		s.attrs[slot] = resolvedAttr{num: v.Num, at: s.attrEpoch}
	} else {
		s.attrs[slot] = resolvedAttr{str: v.Str, at: s.attrEpoch | strStamp}
	}
}

// holds evaluates one lowered predicate against the resolved message.
// The comparisons are Value.compare's, operator by operator — in
// particular a NaN on either side is neither below nor above, so it
// satisfies <=, >= and == exactly as Predicate.MatchValue has it. (Its
// own switch, not numHolds: the table scan runs one predicate shape,
// whose branch predicts, and this form inlines into MatchResolved.)
func (s *MatchScratch) holds(slot uint8, p *Predicate) bool {
	if int(slot) >= len(s.attrs) {
		return false
	}
	ra := &s.attrs[slot]
	if ra.at != s.attrEpoch {
		return false // absent, or not a number
	}
	v, b := ra.num, p.Val.Num
	switch p.Op {
	case LT:
		return v < b
	case LE:
		return !(v > b)
	case GT:
		return v > b
	case GE:
		return !(v < b)
	default: // EQ: newFilter lowers nothing past it
		return !(v < b) && !(v > b)
	}
}

// opHolds[op] has bit k set when op holds for a comparison whose outcome
// is k: 0 neither below nor above (equal, or a NaN on either side), 1
// below, 2 above — Predicate.MatchValue, operator by operator. A NaN
// thus satisfies <=, >= and == and fails <, > and !=.
var opHolds = [...]uint8{
	LT: 1 << 1,
	LE: 1<<0 | 1<<1,
	GT: 1 << 2,
	GE: 1<<0 | 1<<2,
	EQ: 1 << 0,
	NE: 1<<1 | 1<<2,
}

// numHolds is Predicate.MatchValue on two numbers.
func numHolds(op Op, v, b float64) bool {
	return opHolds[op]>>(bit(v < b)|bit(v > b)<<1)&1 != 0
}

// strHolds is Predicate.MatchValue on two strings.
func strHolds(op Op, v, b string) bool {
	return opHolds[op]>>(bit(v < b)|bit(v > b)<<1)&1 != 0
}

func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// check is one residual predicate of an index conjunction, lowered by
// slot: the operator and the operand — a number in num, or, for a
// string operand, an index into the index's string table in str.
type check struct {
	num  float64
	str  int32
	slot uint8
	op   Op
	kind Kind
}

// holdsCheck evaluates a check against the resolved message; strs is
// the owning index's string table. An absent attribute, or one of the
// other kind, fails every operator, != included.
func (s *MatchScratch) holdsCheck(c *check, strs []string) bool {
	if c.kind == Number {
		return s.holdsNum(c.slot, c.op, c.num)
	}
	if int(c.slot) >= len(s.attrs) {
		return false
	}
	ra := &s.attrs[c.slot]
	return ra.at == s.attrEpoch|strStamp && strHolds(c.op, ra.str, strs[c.str])
}

// holdsNum evaluates a numeric check — a slab check's, or a range
// posting's inline one — against the resolved message.
func (s *MatchScratch) holdsNum(slot uint8, op Op, b float64) bool {
	if int(slot) >= len(s.attrs) {
		return false
	}
	ra := &s.attrs[slot]
	return ra.at == s.attrEpoch && numHolds(op, ra.num, b)
}

// MatchResolved is Match for a message the caller has resolved into s
// (s.Resolve(a), once per message): lowered filters evaluate their
// program against the scratch, all others fall back to Match(a). Table
// scans and publication accounting confirm the rows their Scan flags
// this way.
func (f *Filter) MatchResolved(s *MatchScratch, a Attrs) bool {
	if f == nil || f.root == nil {
		return true
	}
	n := int(f.prog.n)
	if n == 0 {
		return f.root.match(a)
	}
	if c, ok := f.root.(conjNode); ok {
		preds := c.preds[:n]
		for i := range preds {
			if !s.holds(f.prog.slot[i], &preds[i]) {
				return false
			}
		}
		return true
	}
	p := f.root.(predNode)
	return s.holds(f.prog.slot[0], &p.p)
}
