package filter

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// wireFilters covers every node and operand kind of the binary form:
// wildcard, a lone predicate, flat conjunctions up to and past a
// program's length, and/or nesting as Parse builds it and as the
// constructors build it, !=, strings, and NaN, ±Inf and −0 operands.
func wireFilters() map[string]*Filter {
	return map[string]*Filter{
		"wildcard":  MustParse("true"),
		"pred":      MustParse("A1 < 4.25"),
		"fanout":    MustParse("A1 > 0.3 && A1 < 0.34 && A2 < 0.7"),
		"conj7":     MustParse("a < 1 && b <= 2 && c > 3 && d >= 4 && e == 5 && f < 6 && g < 7"),
		"conj8":     MustParse("a < 1 && b <= 2 && c > 3 && d >= 4 && e == 5 && f < 6 && g < 7 && h < 8"),
		"ne":        MustParse("A1 != 3 && A2 < 1"),
		"strings":   MustParse(`sym == "IBM" && venue != 'x\'y' && A1 < 2`),
		"or":        MustParse("A1 < 1 || A2 > 2 || sym == 'q'"),
		"nested":    MustParse("(A1 < 1 || A2 > 2) && (A3 < 3 || (A4 > 4 && A5 < 5)) && A6 == 6"),
		"parenConj": MustParse("(A1 > 1 && A1 < 2) && A2 < 3"),
		"orOfOr":    MustParse("(A1 < 1 || A2 < 2) || A3 < 3"),
		"built":     And(Gt("A1", 1), Lt("A1", 2), Or(Lt("A2", 1), Eq("s", Str("v")))),
		"nan":       NewPred("A1", LE, Num(math.NaN())),
		"inf":       And(Gt("A1", math.Inf(-1)), Lt("A2", math.Inf(1))),
		"negzero":   And(Gt("A1", math.Copysign(0, -1)), Lt("A1", 1)),
		"emptyName": NewPred("", EQ, Str("")),
	}
}

// TestBinaryRoundTrip: a decoded filter re-encodes to the same bytes
// and is the filter it was encoded from — same root node type, same
// predicates in the same order (bit for bit: NaN and −0 included), the
// same rendering and the same program and slots.
func TestBinaryRoundTrip(t *testing.T) {
	for name, f := range wireFilters() {
		b, err := f.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := DecodeBinary(b)
		if err != nil {
			t.Fatalf("%s: decode %x: %v", name, b, err)
		}
		b2, err := g.AppendBinary(nil)
		if err != nil || !bytes.Equal(b, b2) {
			t.Errorf("%s: re-encodes to %x (err %v), want %x", name, b2, err, b)
		}
		if got, want := nodeShape(g.root), nodeShape(f.root); got != want {
			t.Errorf("%s: decoded tree %s, want %s", name, got, want)
		}
		if g.String() != f.String() {
			t.Errorf("%s: decoded %q, want %q", name, g.String(), f.String())
		}
		if g.prog != f.prog {
			t.Errorf("%s: decoded program %+v, want %+v", name, g.prog, f.prog)
		}
		fd, gd := f.DNF(), g.DNF()
		for i := range fd {
			for j := range fd[i] {
				p, q := fd[i][j], gd[i][j]
				if p.Attr != q.Attr || p.Op != q.Op || p.Val.Kind != q.Val.Kind || p.Val.Str != q.Val.Str ||
					math.Float64bits(p.Val.Num) != math.Float64bits(q.Val.Num) {
					t.Errorf("%s: predicate %d.%d decoded as %v, want %v", name, i, j, q, p)
				}
			}
		}
	}
}

// nodeShape renders a tree's node types, so two trees that render to the
// same source but are built differently (a conjunction vs an and of
// predicates) tell apart.
func nodeShape(n node) string {
	switch n := n.(type) {
	case nil:
		return "wildcard"
	case predNode:
		return "pred"
	case conjNode:
		return "conj" + strings.Repeat(".", len(n.preds))
	case andNode:
		return "and(" + shapes(n.kids) + ")"
	case orNode:
		return "or(" + shapes(n.kids) + ")"
	}
	return "?"
}

func shapes(kids []node) string {
	var parts []string
	for _, k := range kids {
		parts = append(parts, nodeShape(k))
	}
	return strings.Join(parts, ",")
}

// TestBinaryDecodeReusesInternedNames: a decoded predicate on an
// interned attribute carries the interned string itself, and decoding
// interns nothing newFilter would not: a disjunction (never lowered)
// leaves a new name out of the slot table.
func TestBinaryDecodeReusesInternedNames(t *testing.T) {
	b, err := MustParse("wire_interned > 1 && wire_interned < 2").AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	slot, ok := slotOf("wire_interned")
	if !ok {
		t.Fatal("the lowered filter's name has no slot")
	}
	interned := slots.t.Load().name[slot]
	for _, p := range g.root.(conjNode).preds {
		if unsafe.StringData(p.Attr) != unsafe.StringData(interned) {
			t.Errorf("decoded name %q is a copy, not the interned string", p.Attr)
		}
	}

	b, err = MustParse("wire_never_lowered < 1 || wire_never_lowered > 5").AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(b); err != nil {
		t.Fatal(err)
	}
	if _, ok := slotOf("wire_never_lowered"); ok {
		t.Error("decoding a disjunction interned its attribute name")
	}
}

// TestBinaryDecodeBoundsDepth: a body nesting and-groups far past the
// limit is rejected, and the decoder never entered a level past
// MaxBinaryDepth; an encoder refuses such a tree too.
func TestBinaryDecodeBoundsDepth(t *testing.T) {
	var b []byte
	for i := 0; i < 100000; i++ {
		b = append(b, tagAnd, 0, 2)
	}
	d := binDecoder{buf: b}
	if _, err := d.filter(); !errors.Is(err, ErrBinary) {
		t.Fatalf("deep body: err %v, want ErrBinary", err)
	}
	if d.deepest > MaxBinaryDepth {
		t.Fatalf("decoder reached depth %d, limit %d", d.deepest, MaxBinaryDepth)
	}

	f := Lt("a", 1)
	for i := 0; i < MaxBinaryDepth; i++ {
		f = Or(And(f, Lt("b", float64(i))), Lt("c", 1))
	}
	if _, err := f.AppendBinary(nil); err == nil {
		t.Fatal("encoded a tree nested past MaxBinaryDepth")
	}
}

// nestedText is a filter whose and/or groups nest levels deep, the
// deepest an or of two predicates one level further down.
func nestedText(levels int) string {
	s, op := "a < 1 || b < 2", " && "
	for i := 1; i < levels; i++ {
		s = fmt.Sprintf("c%d < %d%s(%s)", i, i, op, s)
		if op == " && " {
			op = " || "
		} else {
			op = " && "
		}
	}
	return s
}

// TestParseRefusesWhatBinaryCannotHold: Parse accepts exactly what the
// binary form holds, so a parsed subscription is never lost on the
// flood or the log: predicates at MaxBinaryDepth and 255-byte names
// parse and encode; one level or one byte more is refused at Parse.
func TestParseRefusesWhatBinaryCannotHold(t *testing.T) {
	name := strings.Repeat("n", 255)
	for _, src := range []string{nestedText(MaxBinaryDepth - 1), name + " < 1"} {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%.40q…): %v", src, err)
		}
		if _, err := f.AppendBinary(nil); err != nil {
			t.Fatalf("parsed %.40q… but AppendBinary: %v", src, err)
		}
	}
	for _, src := range []string{nestedText(MaxBinaryDepth), name + "n < 1", "x == '" + strings.Repeat("s", 1<<16) + "'"} {
		if f, err := Parse(src); err == nil {
			t.Errorf("Parse(%.40q…) = %v, want an error", src, f)
		}
	}
}

// TestBinaryDecodeRejectsNonCanonical: every input the encoder never
// writes is refused, so whatever decodes re-encodes to its own bytes.
func TestBinaryDecodeRejectsNonCanonical(t *testing.T) {
	pred := []byte{tagPred, 1, 'a', byte(LT), byte(Number), 0, 0, 0, 0, 0, 0, 0, 0}
	for name, b := range map[string][]byte{
		"empty":            nil,
		"wildcard+tail":    {tagWildcard, 0},
		"unknown tag":      {9},
		"bad op":           {tagPred, 1, 'a', byte(NE) + 1, byte(Number), 0, 0, 0, 0, 0, 0, 0, 0},
		"bad kind":         {tagPred, 1, 'a', byte(LT), 2, 0, 0},
		"trailing":         append(append([]byte(nil), pred...), 0),
		"truncated":        pred[:len(pred)-1],
		"conj of one":      {tagConj, 0, 1, 1, 'a', byte(LT), byte(Number), 0, 0, 0, 0, 0, 0, 0, 0},
		"or of one":        append([]byte{tagOr, 0, 1}, pred...),
		"and of none":      {tagAnd, 0, 0},
		"nested wildcard":  append(append([]byte{tagOr, 0, 2}, pred...), tagWildcard),
		"count past input": {tagConj, 0xFF, 0xFF, 0},
	} {
		if f, err := DecodeBinary(b); !errors.Is(err, ErrBinary) {
			t.Errorf("%s: decoded %v (err %v), want ErrBinary", name, f, err)
		}
	}
}
