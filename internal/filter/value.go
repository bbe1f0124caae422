// Package filter implements the content-based subscription language of the
// pub/sub system: typed attribute values, comparison predicates, a small
// expression language with conjunction/disjunction and parentheses, a
// matcher, and a conservative covering test used by the routing layer to
// aggregate subscriptions.
//
// The paper's workload uses filters of the form "A1<x1 && A2<x2" over
// numeric attributes (§6.1); the language here is a superset.
package filter

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates attribute value types.
type Kind uint8

// Supported value kinds.
const (
	Number Kind = iota
	String
)

// Value is an attribute value: a float64 or a string.
type Value struct {
	Kind Kind
	Num  float64
	Str  string
}

// Num returns a numeric Value.
func Num(f float64) Value { return Value{Kind: Number, Num: f} }

// Str returns a string Value.
func Str(s string) Value { return Value{Kind: String, Str: s} }

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.Kind == Number {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return strconv.Quote(v.Str)
}

// Equal reports whether two values have the same kind and content.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	if v.Kind == Number {
		return v.Num == o.Num
	}
	return v.Str == o.Str
}

// compare returns -1, 0, +1 for same-kind values and ok=false when the
// kinds differ (cross-kind comparisons never match).
func (v Value) compare(o Value) (c int, ok bool) {
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case Number:
		switch {
		case v.Num < o.Num:
			return -1, true
		case v.Num > o.Num:
			return 1, true
		default:
			return 0, true
		}
	default:
		switch {
		case v.Str < o.Str:
			return -1, true
		case v.Str > o.Str:
			return 1, true
		default:
			return 0, true
		}
	}
}

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	LT Op = iota // <
	LE           // <=
	GT           // >
	GE           // >=
	EQ           // ==
	NE           // !=
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "=="
	case NE:
		return "!="
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Predicate is an atomic constraint "Attr Op Val". A predicate on an
// attribute the message does not carry, or whose kind differs from Val's,
// does not match.
type Predicate struct {
	Attr string
	Op   Op
	Val  Value
}

// MatchValue reports whether an attribute value satisfies the predicate.
func (p Predicate) MatchValue(v Value) bool {
	c, ok := v.compare(p.Val)
	if !ok {
		return false
	}
	switch p.Op {
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	case EQ:
		return c == 0
	case NE:
		return c != 0
	}
	return false
}

// String implements fmt.Stringer.
func (p Predicate) String() string {
	var b strings.Builder
	p.appendTo(&b)
	return b.String()
}

// appendTo writes the predicate's canonical rendering "Attr Op Val" —
// the form that keys CoverIndex and crosses the wire inside a filter,
// once per broker per subscription flood — without going through fmt.
func (p *Predicate) appendTo(b *strings.Builder) {
	b.WriteString(p.Attr)
	b.WriteByte(' ')
	b.WriteString(p.Op.String())
	b.WriteByte(' ')
	if p.Val.Kind == Number {
		var buf [32]byte
		b.Write(strconv.AppendFloat(buf[:0], p.Val.Num, 'g', -1, 64))
	} else {
		b.WriteString(strconv.Quote(p.Val.Str))
	}
}

// Attrs is the read interface the matcher needs from a message.
type Attrs interface {
	// Attr returns the named attribute value and whether it exists.
	Attr(name string) (Value, bool)
}

// AttrMap adapts a plain map to the Attrs interface.
type AttrMap map[string]Value

// Attr implements Attrs.
func (m AttrMap) Attr(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}
