package filter

import "math"

// Covers reports whether f provably covers g: every message matching g
// also matches f. The test is sound but conservative — it may return
// false for filters whose coverage cannot be established by per-attribute
// interval reasoning over the DNF expansions. Routing uses it only as an
// optimization (aggregating subscription entries), so a false negative
// costs a little table space, never correctness.
func Covers(f, g *Filter) bool {
	var s CoverScratch
	return s.Covers(f, g)
}

// CoverScratch holds the reusable buffers of the covering hot path. A
// broker checking one incoming subscription against many resident
// filters reuses one scratch across every check, so the steady state
// allocates nothing. The zero value is ready to use. Not safe for
// concurrent use.
type CoverScratch struct {
	fdnf, gdnf [][]Predicate
	preds      []Predicate
	fr, gr     []attrInterval
}

// Covers is the allocation-free form of the package-level Covers.
func (s *CoverScratch) Covers(f, g *Filter) bool {
	if f == nil || f.root == nil {
		return true // wildcard covers everything
	}
	if g == nil || g.root == nil {
		// Only a wildcard-equivalent f covers the wildcard; after the
		// check above, f has constraints, so be conservative.
		return false
	}
	s.preds = s.preds[:0]
	s.fdnf = s.appendDNF(f.root, s.fdnf[:0])
	s.gdnf = s.appendDNF(g.root, s.gdnf[:0])
	// f covers g iff every disjunct of g is covered by some disjunct of f
	// (sufficient condition).
	for _, gc := range s.gdnf {
		gr, ok := conjRangesAppend(gc, s.gr[:0])
		s.gr = gr[:0]
		if !ok {
			return false
		}
		covered := false
		for _, fc := range s.fdnf {
			fr, okf := conjRangesAppend(fc, s.fr[:0])
			s.fr = fr[:0]
			if !okf {
				continue
			}
			if rangesCover(fr, gr) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// appendDNF expands a node into disjuncts without allocating for the
// common shapes (single predicates, flat conjunctions, disjunctions of
// those). Predicates lifted out of predNodes live in s.preds; slices
// handed out before a growth keep pointing at the old backing, whose
// values never change, so they stay valid.
func (s *CoverScratch) appendDNF(n node, out [][]Predicate) [][]Predicate {
	switch n := n.(type) {
	case predNode:
		s.preds = append(s.preds, n.p)
		return append(out, s.preds[len(s.preds)-1:len(s.preds):len(s.preds)])
	case conjNode:
		return append(out, n.preds)
	case orNode:
		for _, kid := range n.kids {
			out = s.appendDNF(kid, out)
		}
		return out
	default:
		// andNode of non-trivial children (or future node kinds): fall
		// back to the allocating Cartesian expansion.
		return append(out, n.dnf()...)
	}
}

// attrInterval is one attribute's interval within a folded conjunction.
type attrInterval struct {
	attr string
	iv   interval
}

// interval is a numeric constraint lo < / <= x < / <= hi with optional
// pinned string equality. It is the meet of all predicates on one
// attribute within a conjunction.
type interval struct {
	lo, hi         float64
	loOpen, hiOpen bool
	// String-typed equality constraint; "" kind handled via isStr.
	isStr  bool
	strVal string
}

func newInterval() interval {
	return interval{lo: math.Inf(-1), hi: math.Inf(1)}
}

func (iv interval) empty() bool {
	if iv.lo > iv.hi {
		return true
	}
	if iv.lo == iv.hi && (iv.loOpen || iv.hiOpen) {
		return true
	}
	return false
}

// contains reports whether iv ⊇ other.
func (iv interval) contains(other interval) bool {
	if iv.isStr || other.isStr {
		// Only identical pinned strings can establish coverage.
		return iv.isStr && other.isStr && iv.strVal == other.strVal
	}
	// Lower bound: iv.lo must be <= other.lo, with openness compatible.
	if iv.lo > other.lo {
		return false
	}
	if iv.lo == other.lo && iv.loOpen && !other.loOpen {
		return false
	}
	if iv.hi < other.hi {
		return false
	}
	if iv.hi == other.hi && iv.hiOpen && !other.hiOpen {
		return false
	}
	return true
}

// rangesCover reports whether the conjunction folded into fr covers the
// one folded into gr. An unsatisfiable g-conjunction (any empty
// interval) is vacuously covered; otherwise every constraint in f must
// be implied by g's constraint on the same attribute — if g leaves an
// attribute f constrains unconstrained, f cannot cover g.
func rangesCover(fr, gr []attrInterval) bool {
	for i := range gr {
		if gr[i].iv.empty() {
			return true
		}
	}
	for i := range fr {
		gi, ok := findAttr(gr, fr[i].attr)
		if !ok {
			return false
		}
		if !fr[i].iv.contains(gi) {
			return false
		}
	}
	return true
}

// findAttr looks an attribute up in a folded conjunction. Conjunctions
// are a handful of predicates, so a linear scan beats any map.
func findAttr(rs []attrInterval, attr string) (interval, bool) {
	for i := range rs {
		if rs[i].attr == attr {
			return rs[i].iv, true
		}
	}
	return interval{}, false
}

// conjRangesAppend folds a conjunction into per-attribute intervals,
// appending to buf (first-occurrence attribute order). It returns
// ok=false when a predicate cannot be represented (NE, or mixed
// string/number constraints on one attribute) — the caller then falls
// back to "not provably covered".
func conjRangesAppend(conj []Predicate, buf []attrInterval) ([]attrInterval, bool) {
	for pi := range conj {
		p := &conj[pi]
		at := -1
		for i := range buf {
			if buf[i].attr == p.Attr {
				at = i
				break
			}
		}
		exists := at >= 0
		if !exists {
			buf = append(buf, attrInterval{attr: p.Attr, iv: newInterval()})
			at = len(buf) - 1
		}
		iv := buf[at].iv
		switch {
		case p.Val.Kind == String:
			if p.Op != EQ {
				return buf, false
			}
			if exists && (!iv.isStr || iv.strVal != p.Val.Str) {
				return buf, false
			}
			iv = interval{isStr: true, strVal: p.Val.Str}
		case p.Op == NE:
			return buf, false
		default:
			if iv.isStr {
				return buf, false
			}
			x := p.Val.Num
			switch p.Op {
			case LT:
				if x < iv.hi || (x == iv.hi && !iv.hiOpen) {
					iv.hi, iv.hiOpen = x, true
				}
			case LE:
				if x < iv.hi {
					iv.hi, iv.hiOpen = x, false
				}
			case GT:
				if x > iv.lo || (x == iv.lo && !iv.loOpen) {
					iv.lo, iv.loOpen = x, true
				}
			case GE:
				if x > iv.lo {
					iv.lo, iv.loOpen = x, false
				}
			case EQ:
				if x > iv.lo || (x == iv.lo && iv.loOpen) {
					iv.lo, iv.loOpen = x, false
				}
				if x < iv.hi || (x == iv.hi && iv.hiOpen) {
					iv.hi, iv.hiOpen = x, false
				}
			}
		}
		buf[at].iv = iv
	}
	return buf, true
}
