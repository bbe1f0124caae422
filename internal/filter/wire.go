package filter

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary form of a Filter: what a subscription carries across the wire
// and into the write-ahead log (msg.AppendSubscription). It is the
// expression tree itself, node by node in depth-first order, so decoding
// rebuilds the tree Parse or the constructors built — root type,
// predicate order, and through newFilter the same program and slots —
// without a lexer:
//
//	node      := tag(1) body
//	  wildcard: (nothing)                      the root only
//	  pred:     predicate
//	  conj:     count(2) predicate{count}      count ≥ 2
//	  and, or:  count(2) node{count}           count ≥ 2
//	predicate := nameLen(1) name op(1) kind(1) ( num(8) | strLen(2) str )
//
// Integers are big endian and numbers IEEE-754 bit patterns, so NaN, ±Inf
// and −0 cross unchanged. Every field has one encoding, and the decoder
// rejects what the encoder never writes (a wildcard below the root, a
// group of fewer than two, an unknown tag, operator or kind, trailing
// bytes, nesting past MaxBinaryDepth): whatever decodes re-encodes to the
// bytes it came from.

// Node tags of the binary form.
const (
	tagWildcard = iota
	tagPred
	tagConj
	tagAnd
	tagOr
)

// MaxBinaryDepth bounds the nesting of and/or groups in a binary filter:
// Parse and the encoder refuse a deeper tree, and the decoder never
// recurses past it, whatever its input claims.
const MaxBinaryDepth = 32

// Field limits of the binary form.
const (
	maxBinaryName = 1<<8 - 1
	maxBinaryStr  = 1<<16 - 1
	maxBinaryKids = 1<<16 - 1
	// minBinaryPred is the smallest predicate encoding (empty name, string
	// operand of length zero), minBinaryNode the smallest node's: counts
	// are checked against the bytes left before anything is allocated.
	minBinaryPred = 1 + 1 + 1 + 2
	minBinaryNode = 1 + minBinaryPred
)

// ErrBinary reports a binary filter that does not decode.
var ErrBinary = errors.New("filter: corrupt binary filter")

// AppendBinary appends f's binary form to dst. A nil f is the wildcard.
// It fails only for a filter the form cannot hold (checkBinary): Parse
// never returns one, but the constructors can build one.
func (f *Filter) AppendBinary(dst []byte) ([]byte, error) {
	if f == nil || f.root == nil {
		return append(dst, tagWildcard), nil
	}
	if err := checkBinary(f.root, 1); err != nil {
		return dst, err
	}
	return appendNode(dst, f.root), nil
}

// checkBinary reports why the tree under n, entered at nesting level
// depth, does not fit the binary form, or nil when it does: and/or
// nesting deeper than MaxBinaryDepth, an attribute name over 255 bytes,
// a string operand over 65535, or a group of more than 65535.
func checkBinary(n node, depth int) error {
	if depth > MaxBinaryDepth {
		return fmt.Errorf("filter: nesting deeper than %d", MaxBinaryDepth)
	}
	var kids []node
	switch n := n.(type) {
	case predNode:
		return checkPred(&n.p)
	case conjNode:
		if len(n.preds) > maxBinaryKids {
			return fmt.Errorf("filter: conjunction of %d predicates", len(n.preds))
		}
		for i := range n.preds {
			if err := checkPred(&n.preds[i]); err != nil {
				return err
			}
		}
		return nil
	case andNode:
		kids = n.kids
	case orNode:
		kids = n.kids
	}
	if len(kids) > maxBinaryKids {
		return fmt.Errorf("filter: group of %d terms", len(kids))
	}
	for _, k := range kids {
		if err := checkBinary(k, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func checkPred(p *Predicate) error {
	if len(p.Attr) > maxBinaryName {
		return fmt.Errorf("filter: attribute name of %d bytes", len(p.Attr))
	}
	if p.Val.Kind != Number && len(p.Val.Str) > maxBinaryStr {
		return fmt.Errorf("filter: string operand of %d bytes", len(p.Val.Str))
	}
	return nil
}

// appendNode appends the tree under n, which checkBinary has accepted.
func appendNode(dst []byte, n node) []byte {
	var kids []node
	switch n := n.(type) {
	case predNode:
		return appendPred(append(dst, tagPred), &n.p)
	case conjNode:
		dst = binary.BigEndian.AppendUint16(append(dst, tagConj), uint16(len(n.preds)))
		for i := range n.preds {
			dst = appendPred(dst, &n.preds[i])
		}
		return dst
	case andNode:
		dst, kids = append(dst, tagAnd), n.kids
	case orNode:
		dst, kids = append(dst, tagOr), n.kids
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(kids)))
	for _, k := range kids {
		dst = appendNode(dst, k)
	}
	return dst
}

func appendPred(dst []byte, p *Predicate) []byte {
	dst = append(dst, byte(len(p.Attr)))
	dst = append(dst, p.Attr...)
	dst = append(dst, byte(p.Op), byte(p.Val.Kind))
	if p.Val.Kind == Number {
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Val.Num))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Val.Str)))
	return append(dst, p.Val.Str...)
}

// DecodeBinary decodes a filter from exactly the bytes of b (see
// AppendBinary). An attribute name that already has a slot reuses the
// interned string; nothing is interned but what newFilter interns for
// the decoded tree.
func DecodeBinary(b []byte) (*Filter, error) {
	d := binDecoder{buf: b}
	return d.filter()
}

// binDecoder reads one binary filter. deepest records the deepest node
// level entered, so tests can pin that hostile nesting stops at the
// limit.
type binDecoder struct {
	buf     []byte
	pos     int
	deepest int
}

func (d *binDecoder) filter() (*Filter, error) {
	if len(d.buf) == 1 && d.buf[0] == tagWildcard {
		return &Filter{}, nil
	}
	root, err := d.node(1)
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinary, len(d.buf)-d.pos)
	}
	return newFilter(root), nil
}

func (d *binDecoder) node(depth int) (node, error) {
	if depth > MaxBinaryDepth {
		return nil, fmt.Errorf("%w: nesting deeper than %d", ErrBinary, MaxBinaryDepth)
	}
	d.deepest = max(d.deepest, depth)
	tag, ok := d.u8()
	if !ok {
		return nil, d.truncated()
	}
	if tag == tagPred {
		p, err := d.pred()
		if err != nil {
			return nil, err
		}
		return predNode{p}, nil
	}
	if tag != tagConj && tag != tagAnd && tag != tagOr {
		return nil, fmt.Errorf("%w: node tag %d at byte %d", ErrBinary, tag, d.pos-1)
	}
	count, ok := d.u16()
	if !ok {
		return nil, d.truncated()
	}
	least := minBinaryNode
	if tag == tagConj {
		least = minBinaryPred
	}
	if count < 2 || count > (len(d.buf)-d.pos)/least {
		return nil, fmt.Errorf("%w: group of %d at byte %d", ErrBinary, count, d.pos-2)
	}
	if tag == tagConj {
		preds := make([]Predicate, count)
		for i := range preds {
			var err error
			if preds[i], err = d.pred(); err != nil {
				return nil, err
			}
		}
		return conjNode{preds: preds}, nil
	}
	kids := make([]node, count)
	for i := range kids {
		var err error
		if kids[i], err = d.node(depth + 1); err != nil {
			return nil, err
		}
	}
	if tag == tagAnd {
		return andNode{kids: kids}, nil
	}
	return orNode{kids: kids}, nil
}

func (d *binDecoder) pred() (Predicate, error) {
	var p Predicate
	n, ok := d.u8()
	if !ok {
		return p, d.truncated()
	}
	name := d.take(int(n))
	op, okOp := d.u8()
	kind, okKind := d.u8()
	if name == nil || !okOp || !okKind {
		return p, d.truncated()
	}
	if Op(op) > NE || Kind(kind) > String {
		return p, fmt.Errorf("%w: operator %d, kind %d at byte %d", ErrBinary, op, kind, d.pos-2)
	}
	var interned bool
	if p.Attr, interned = internedName(name); !interned {
		p.Attr = string(name)
	}
	p.Op = Op(op)
	if Kind(kind) == Number {
		v := d.take(8)
		if v == nil {
			return p, d.truncated()
		}
		p.Val = Num(math.Float64frombits(binary.BigEndian.Uint64(v)))
		return p, nil
	}
	sn, ok := d.u16()
	if !ok {
		return p, d.truncated()
	}
	s := d.take(int(sn))
	if s == nil {
		return p, d.truncated()
	}
	p.Val = Str(string(s))
	return p, nil
}

func (d *binDecoder) truncated() error {
	return fmt.Errorf("%w: truncated at byte %d", ErrBinary, d.pos)
}

// take returns the next n bytes (non-nil, even when n is 0), or nil when
// fewer remain.
func (d *binDecoder) take(n int) []byte {
	if n > len(d.buf)-d.pos {
		return nil
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

func (d *binDecoder) u8() (byte, bool) {
	b := d.take(1)
	if b == nil {
		return 0, false
	}
	return b[0], true
}

func (d *binDecoder) u16() (int, bool) {
	b := d.take(2)
	if b == nil {
		return 0, false
	}
	return int(binary.BigEndian.Uint16(b)), true
}
