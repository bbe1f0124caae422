package filter

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses a subscription expression. Grammar:
//
//	filter    := orExpr
//	orExpr    := andExpr ( "||" andExpr )*
//	andExpr   := term ( "&&" term )*
//	term      := predicate | "(" orExpr ")" | "true"
//	predicate := IDENT op value
//	op        := "<" | "<=" | ">" | ">=" | "==" | "=" | "!="
//	value     := NUMBER | STRING
//
// Identifiers are [A-Za-z_][A-Za-z0-9_.]*. Numbers use Go float syntax.
// Strings are single- or double-quoted. "true" (or an empty input) is the
// wildcard filter. Parse refuses a filter the binary form cannot hold
// (AppendBinary): and/or nesting deeper than MaxBinaryDepth, an
// attribute name over 255 bytes, a string operand over 65535 bytes, or a
// group of more than 65535 terms.
func Parse(src string) (*Filter, error) {
	f, _, err := ParseAppend(src, nil)
	return f, err
}

// ParseAppend is Parse with a caller-provided predicate buffer: leaf
// predicates are appended to preds in a single pass and the returned
// filter references the appended region directly (no per-predicate node
// boxing). It returns the grown slice for reuse — but note the filter
// aliases it, so a caller recycling the buffer across many filters must
// keep it append-only for as long as those filters live (an arena), or
// pass nil and let each filter own its predicates.
func ParseAppend(src string, preds []Predicate) (*Filter, []Predicate, error) {
	p := &parser{lex: lexer{src: src}, preds: preds}
	p.next()
	if p.tok.kind == tokEOF {
		return &Filter{}, p.preds, nil
	}
	root, err := p.parseOr()
	if err != nil {
		return nil, p.preds, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.preds, p.errorf("unexpected %q after expression", p.tok.text)
	}
	// What parses must also cross the wire: a subscription's filter
	// travels in the binary form, so a tree it cannot hold is refused
	// here rather than lost on the flood.
	if err := checkBinary(root, 1); err != nil {
		return nil, p.preds, err
	}
	return newFilter(root), p.preds, nil
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp     // comparison operator
	tokAnd    // &&
	tokOr     // ||
	tokLParen // (
	tokRParen // )
	tokErr
)

type token struct {
	kind tokKind
	text string
	num  float64
	op   Op
	pos  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) lex() token {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}
	case c == '&':
		if strings.HasPrefix(l.src[l.pos:], "&&") {
			l.pos += 2
			return token{kind: tokAnd, text: "&&", pos: start}
		}
		l.pos++
		return token{kind: tokErr, text: "&", pos: start}
	case c == '|':
		if strings.HasPrefix(l.src[l.pos:], "||") {
			l.pos += 2
			return token{kind: tokOr, text: "||", pos: start}
		}
		l.pos++
		return token{kind: tokErr, text: "|", pos: start}
	case c == '<':
		if strings.HasPrefix(l.src[l.pos:], "<=") {
			l.pos += 2
			return token{kind: tokOp, op: LE, text: "<=", pos: start}
		}
		l.pos++
		return token{kind: tokOp, op: LT, text: "<", pos: start}
	case c == '>':
		if strings.HasPrefix(l.src[l.pos:], ">=") {
			l.pos += 2
			return token{kind: tokOp, op: GE, text: ">=", pos: start}
		}
		l.pos++
		return token{kind: tokOp, op: GT, text: ">", pos: start}
	case c == '=':
		if strings.HasPrefix(l.src[l.pos:], "==") {
			l.pos += 2
			return token{kind: tokOp, op: EQ, text: "==", pos: start}
		}
		l.pos++
		return token{kind: tokOp, op: EQ, text: "=", pos: start}
	case c == '!':
		if strings.HasPrefix(l.src[l.pos:], "!=") {
			l.pos += 2
			return token{kind: tokOp, op: NE, text: "!=", pos: start}
		}
		l.pos++
		return token{kind: tokErr, text: "!", pos: start}
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		lit := l.pos
		escaped := false
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				escaped = true
				l.pos++
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{kind: tokErr, text: "unterminated string", pos: start}
		}
		text := l.src[lit:l.pos]
		l.pos++ // closing quote
		if escaped {
			// Rare path: unescape into a fresh buffer.
			var b strings.Builder
			b.Grow(len(text))
			for i := 0; i < len(text); i++ {
				if text[i] == '\\' && i+1 < len(text) {
					i++
				}
				b.WriteByte(text[i])
			}
			text = b.String()
		}
		return token{kind: tokString, text: text, pos: start}
	case c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.':
		end := l.pos
		for end < len(l.src) && strings.ContainsRune("0123456789.eE+-", rune(l.src[end])) {
			// Stop '+'/'-' unless preceded by an exponent marker.
			if (l.src[end] == '+' || l.src[end] == '-') && end > l.pos &&
				l.src[end-1] != 'e' && l.src[end-1] != 'E' {
				break
			}
			end++
		}
		text := l.src[l.pos:end]
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{kind: tokErr, text: text, pos: start}
		}
		l.pos = end
		return token{kind: tokNumber, text: text, num: f, pos: start}
	case isIdentStart(c):
		end := l.pos
		for end < len(l.src) && isIdentPart(l.src[end]) {
			end++
		}
		text := l.src[l.pos:end]
		l.pos = end
		return token{kind: tokIdent, text: text, pos: start}
	}
	l.pos++
	return token{kind: tokErr, text: string(c), pos: start}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

type parser struct {
	lex lexer
	tok token
	// preds accumulates every leaf predicate in source order, in one
	// append-only buffer (caller-provided via ParseAppend). Conjunction
	// nodes alias sub-ranges of it; it is never rewound, so aliased
	// ranges stay valid even across or-branches and nesting.
	preds []Predicate
}

func (p *parser) next() { p.tok = p.lex.lex() }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("filter: pos %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

// parseOr returns a nil node for a wildcard (always-true) expression.
func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	wildcard := left == nil
	var kids []node
	if left != nil {
		kids = append(kids, left)
	}
	for p.tok.kind == tokOr {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if right == nil {
			wildcard = true // true ∨ x = true
		} else {
			kids = append(kids, right)
		}
	}
	if wildcard {
		return nil, nil
	}
	if len(kids) == 1 {
		return kids[0], nil
	}
	return orNode{kids: kids}, nil
}

// parseAnd parses a conjunction. The common pure-predicate case emits a
// flat conjNode aliasing the parser's predicate buffer — one node and
// zero per-term boxing; a conjunction that mixes parenthesized groups
// falls back to the general andNode, preserving term order.
func (p *parser) parseAnd() (node, error) {
	start := len(p.preds)
	var kids []node
	mixed := false
	for {
		// mark bounds this conjunction's own flat run: a parenthesized
		// term appends its inner predicates to the shared buffer too,
		// so the run collected directly by this level is [start, mark).
		mark := len(p.preds)
		n, isPred, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		switch {
		case isPred && mixed:
			kids = append(kids, predNode{p.preds[len(p.preds)-1]})
		case !isPred && n != nil:
			if !mixed {
				// First non-predicate term: materialize the predicate
				// run collected so far, in source order.
				for _, q := range p.preds[start:mark] {
					kids = append(kids, predNode{q})
				}
				mixed = true
			}
			kids = append(kids, n)
		}
		// isPred && !mixed: stays in the flat run. nil node: wildcard
		// term, dropped (true ∧ x = x).
		if p.tok.kind != tokAnd {
			break
		}
		p.next()
	}
	if mixed {
		if len(kids) == 1 {
			return kids[0], nil
		}
		return andNode{kids: kids}, nil
	}
	run := p.preds[start:len(p.preds):len(p.preds)]
	switch len(run) {
	case 0:
		return nil, nil
	case 1:
		return predNode{run[0]}, nil
	}
	return conjNode{preds: run}, nil
}

// parseTerm parses one term. A bare predicate is appended to p.preds
// and reported with isPred = true (no node); parenthesized groups come
// back as nodes; a wildcard ("true") is a nil node with isPred = false.
func (p *parser) parseTerm() (n node, isPred bool, err error) {
	switch p.tok.kind {
	case tokLParen:
		mark := len(p.preds)
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, false, err
		}
		if p.tok.kind != tokRParen {
			return nil, false, p.errorf("expected ')', got %q", p.tok.text)
		}
		p.next()
		if inner == nil {
			// The group collapsed to a wildcard: every node built inside
			// it was discarded, so its predicates can be rewound (nothing
			// aliases them — the group's nodes were the only handles).
			p.preds = p.preds[:mark]
		}
		return inner, false, nil
	case tokIdent:
		if p.tok.text == "true" {
			p.next()
			// Wildcard term: represented by a nil node, collapsed by the
			// callers (true ∧ x = x, true ∨ x = true).
			return nil, false, nil
		}
		attr := p.tok.text
		p.next()
		if p.tok.kind != tokOp {
			return nil, false, p.errorf("expected comparison operator after %q, got %q", attr, p.tok.text)
		}
		op := p.tok.op
		p.next()
		var val Value
		switch p.tok.kind {
		case tokNumber:
			val = Num(p.tok.num)
		case tokString:
			val = Str(p.tok.text)
		default:
			return nil, false, p.errorf("expected value, got %q", p.tok.text)
		}
		p.next()
		p.preds = append(p.preds, Predicate{Attr: attr, Op: op, Val: val})
		return nil, true, nil
	case tokErr:
		return nil, false, p.errorf("bad token %q", p.tok.text)
	default:
		return nil, false, p.errorf("expected predicate or '(', got %q", p.tok.text)
	}
}
