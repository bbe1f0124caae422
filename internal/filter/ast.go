package filter

import (
	"fmt"
	"strings"
)

// node is an expression-tree node.
type node interface {
	match(a Attrs) bool
	str(b *strings.Builder, parenCtx byte)
	dnf() [][]Predicate
}

type predNode struct{ p Predicate }

func (n predNode) match(a Attrs) bool {
	v, ok := a.Attr(n.p.Attr)
	return ok && n.p.MatchValue(v)
}

func (n predNode) str(b *strings.Builder, _ byte) { n.p.appendTo(b) }

func (n predNode) dnf() [][]Predicate { return [][]Predicate{{n.p}} }

// conjNode is a flat conjunction of predicates — the overwhelmingly
// common filter shape ("A1 < x && A2 < y") — backed by one predicate
// slice instead of one boxed node per term. The parser emits it for any
// pure-predicate conjunction; semantics, rendering and DNF are
// identical to the equivalent andNode of predNodes.
type conjNode struct{ preds []Predicate }

func (n conjNode) match(a Attrs) bool {
	for i := range n.preds {
		v, ok := a.Attr(n.preds[i].Attr)
		if !ok || !n.preds[i].MatchValue(v) {
			return false
		}
	}
	return true
}

func (n conjNode) str(b *strings.Builder, parenCtx byte) {
	if parenCtx == 'p' {
		b.WriteByte('(')
	}
	for i := range n.preds {
		if i > 0 {
			b.WriteString(" && ")
		}
		n.preds[i].appendTo(b)
	}
	if parenCtx == 'p' {
		b.WriteByte(')')
	}
}

func (n conjNode) dnf() [][]Predicate { return [][]Predicate{n.preds} }

type andNode struct{ kids []node }

func (n andNode) match(a Attrs) bool {
	for _, k := range n.kids {
		if !k.match(a) {
			return false
		}
	}
	return true
}

func (n andNode) str(b *strings.Builder, parenCtx byte) {
	if parenCtx == 'p' {
		b.WriteByte('(')
	}
	for i, k := range n.kids {
		if i > 0 {
			b.WriteString(" && ")
		}
		k.str(b, 'a')
	}
	if parenCtx == 'p' {
		b.WriteByte(')')
	}
}

func (n andNode) dnf() [][]Predicate {
	// Cartesian product of the children's disjuncts.
	acc := [][]Predicate{{}}
	for _, k := range n.kids {
		kd := k.dnf()
		next := make([][]Predicate, 0, len(acc)*len(kd))
		for _, left := range acc {
			for _, right := range kd {
				conj := make([]Predicate, 0, len(left)+len(right))
				conj = append(conj, left...)
				conj = append(conj, right...)
				next = append(next, conj)
			}
		}
		acc = next
	}
	return acc
}

type orNode struct{ kids []node }

func (n orNode) match(a Attrs) bool {
	for _, k := range n.kids {
		if k.match(a) {
			return true
		}
	}
	return false
}

func (n orNode) str(b *strings.Builder, parenCtx byte) {
	if parenCtx == 'a' || parenCtx == 'p' {
		b.WriteByte('(')
	}
	for i, k := range n.kids {
		if i > 0 {
			b.WriteString(" || ")
		}
		k.str(b, 'o')
	}
	if parenCtx == 'a' || parenCtx == 'p' {
		b.WriteByte(')')
	}
}

func (n orNode) dnf() [][]Predicate {
	var out [][]Predicate
	for _, k := range n.kids {
		out = append(out, k.dnf()...)
	}
	return out
}

// Filter is a parsed, immutable subscription expression.
//
// The zero-value Filter matches everything (an empty conjunction), which
// models a wildcard subscription.
type Filter struct {
	root node
	// prog is root lowered for table scans (program.go); set by
	// newFilter, zero for wildcards and filters that do not qualify.
	prog program
}

// Match reports whether the attributes satisfy the filter.
func (f *Filter) Match(a Attrs) bool {
	if f == nil || f.root == nil {
		return true
	}
	return f.root.match(a)
}

// String renders the filter back to its canonical source form.
func (f *Filter) String() string {
	if f == nil || f.root == nil {
		return "true"
	}
	var b strings.Builder
	f.root.str(&b, 0)
	return b.String()
}

// DNF returns the filter as a disjunction of conjunctions of predicates.
// A wildcard filter returns a single empty conjunction.
func (f *Filter) DNF() [][]Predicate {
	if f == nil || f.root == nil {
		return [][]Predicate{{}}
	}
	return f.root.dnf()
}

// NewPred builds a single-predicate filter.
func NewPred(attr string, op Op, val Value) *Filter {
	return newFilter(predNode{Predicate{Attr: attr, Op: op, Val: val}})
}

// And combines filters conjunctively. Nil or wildcard operands are
// dropped; And() with no effective operands is a wildcard. A combination
// of pure predicates and flat conjunctions collapses into one conjNode —
// the parser's representation for the same expression — so the
// workload's constructed filters share the parsed filters' flat,
// DNF-without-allocation shape.
func And(fs ...*Filter) *Filter {
	var kids []node
	flat := true
	for _, f := range fs {
		if f == nil || f.root == nil {
			continue
		}
		if a, ok := f.root.(andNode); ok {
			kids = append(kids, a.kids...)
		} else {
			kids = append(kids, f.root)
		}
	}
	nPreds := 0
	for _, k := range kids {
		switch k := k.(type) {
		case predNode:
			nPreds++
		case conjNode:
			nPreds += len(k.preds)
		default:
			flat = false
		}
	}
	switch len(kids) {
	case 0:
		return &Filter{}
	case 1:
		return newFilter(kids[0])
	}
	if flat {
		preds := make([]Predicate, 0, nPreds)
		for _, k := range kids {
			switch k := k.(type) {
			case predNode:
				preds = append(preds, k.p)
			case conjNode:
				preds = append(preds, k.preds...)
			}
		}
		return newFilter(conjNode{preds: preds})
	}
	return newFilter(andNode{kids: kids})
}

// Or combines filters disjunctively. A nil or wildcard operand makes the
// result a wildcard (true ∨ x = true).
func Or(fs ...*Filter) *Filter {
	var kids []node
	for _, f := range fs {
		if f == nil || f.root == nil {
			return &Filter{}
		}
		if o, ok := f.root.(orNode); ok {
			kids = append(kids, o.kids...)
		} else {
			kids = append(kids, f.root)
		}
	}
	switch len(kids) {
	case 0:
		return &Filter{}
	case 1:
		return newFilter(kids[0])
	}
	return newFilter(orNode{kids: kids})
}

// Lt is shorthand for a numeric less-than predicate, the form the paper's
// workload uses ("A1 < x1").
func Lt(attr string, x float64) *Filter { return NewPred(attr, LT, Num(x)) }

// Gt is shorthand for a numeric greater-than predicate.
func Gt(attr string, x float64) *Filter { return NewPred(attr, GT, Num(x)) }

// Eq is shorthand for an equality predicate.
func Eq(attr string, v Value) *Filter { return NewPred(attr, EQ, v) }

// MustParse parses src and panics on error; intended for tests, examples
// and literals known to be valid.
func MustParse(src string) *Filter {
	f, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("filter.MustParse(%q): %v", src, err))
	}
	return f
}
