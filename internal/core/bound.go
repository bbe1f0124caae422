package core

import (
	"math"

	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// Certified brackets. Every decision the scheduler makes from success
// probabilities is a comparison: the metric strategies take an argmax of
// Σ Φ(·)·price (§5.1–5.3), and ε-detection asks whether every Φ is below
// ε (§5.4). A comparison needs the exact value only when the operands are
// close, so each Φ is first read from a table by linear interpolation,
// which brackets the exact SuccessProb within ±phiErr. The exact Erfc
// path runs only for what the brackets cannot decide, and every decision
// is the one the exact loops make, bit for bit (equivalence_test.go).

// phiTable holds Φ(z) for z = phiLo + i/phiScale on [−12, 9]. It is a
// static array, filled once at start-up, so it costs no heap.
const (
	phiLo    = -12.0
	phiScale = 256
	phiN     = 21*phiScale + 1
)

var phiTable [phiN]float64

func init() {
	for i := range phiTable {
		phiTable[i] = stats.StdNormalCDF(phiLo + float64(i)/phiScale)
	}
}

// phiErr bounds |interpolated − exact| inside the table. Linear
// interpolation at step h misses a function by at most h²·max|f″|/8, and
// |Φ″(z)| = |z|·φ(z) peaks at φ(1), so the interpolation error is at most
// φ(1)/(8·256²) ≈ 4.615e-7. The table entries, the interpolation and
// Erfc each round by a few ulps; the worst measured error is 4.62e-7
// (TestPhiBracketBound). The margin up to 5e-7 also absorbs the rounding
// of the sums the brackets feed: about n·2⁻⁵² of Σ|price| for n targets.
const phiErr = 5e-7

// phiBracket returns p and r with StdNormalCDF(z) in [p−r, p+r]; r = 0
// means p is StdNormalCDF(z) exactly. Above the table Φ is exactly 1 in
// float64 (stats.SureSigmas); below it Φ lies in [0, Φ(−12)]. NaN comes
// back as NaN, which no comparison accepts.
func phiBracket(z float64) (p, r float64) {
	u := (z - phiLo) * phiScale
	switch {
	case u >= phiN-1:
		return 1, 0
	case u >= 0:
		i := int(u)
		f := u - float64(i)
		lo := phiTable[i]
		return lo + f*(phiTable[i+1]-lo), phiErr
	case u < 0:
		half := phiTable[0] / 2
		return half, half
	}
	return z, z
}

// successBracket brackets SuccessProb(*t, now, sizeKB, pd) like
// phiBracket brackets Φ. Expired slack and point-mass rates keep their
// exact rules (r = 0); otherwise the standardized slack is computed with
// SuccessProb's own operations and looked up in the table.
func successBracket(t *Target, now vtime.Millis, sizeKB float64, pd vtime.Millis) (p, r float64) {
	slack := t.Deadline - now - float64(t.Hops)*pd
	if slack <= 0 {
		return 0, 0
	}
	if sizeKB < minSizeKB {
		sizeKB = minSizeKB
	}
	if t.Rate.Sigma == 0 {
		return t.Rate.CDF(slack / sizeKB), 0
	}
	return phiBracket((slack/sizeKB - t.Rate.Mean) / t.Rate.Sigma)
}

// benefitBracket brackets benefitAt(e, c, at): the exact value lies in
// [v−r, v+r], and r = 0 means v is that value bit for bit — no target
// needed the table, so v was summed with benefitAt's operations.
// Otherwise r = phiErr·Σ|price|.
func benefitBracket(e *Entry, c *entryCache, at vtime.Millis) (v, r float64) {
	if at <= c.minSure {
		return c.priceSum, 0
	}
	var abs float64
	approx := false
	for i := range e.Targets {
		t := &e.Targets[i]
		abs += math.Abs(t.Price)
		if at <= c.sure[i] {
			v += t.Price
			continue
		}
		p, pr := successBracket(t, at, e.SizeKB, c.pd)
		v += p * t.Price
		approx = approx || pr != 0
	}
	if approx {
		r = phiErr * abs
	}
	return v, r
}

// argmax is the Pick of the metric strategies: the entry with the
// largest EB (delayed false) or EB − k·EB′ (PC at k = 1, EBPC at
// k = 1 − r), ties toward the lower index.
type argmax struct {
	delayed bool
	k       float64
}

// value is the exact metric, with the operations of EB, PC and EBPC.
func (m argmax) value(e *Entry, ctx Context) float64 {
	if !m.delayed {
		return EB(e, ctx)
	}
	return EB(e, ctx) - m.k*EBDelayed(e, ctx)
}

// bracket brackets value like benefitBracket brackets benefitAt. The
// combination EB − k·EB′ rounds twice more than its parts, which the
// 2⁻⁵⁰ term covers; with both parts exact it is exact too.
func (m argmax) bracket(e *Entry, ctx Context) (v, r float64) {
	c := e.metrics(ctx.PD)
	v, r = benefitBracket(e, c, ctx.Now)
	if !m.delayed {
		return v, r
	}
	d, rd := benefitBracket(e, c, ctx.Now+ctx.FT)
	kd := m.k * d
	r += math.Abs(m.k) * rd
	if r != 0 {
		r += 0x1p-50 * (math.Abs(v) + math.Abs(kd))
	}
	return v - kd, r
}

// pick returns the exact loop's answer. One pass brackets every entry:
// when the greatest lower bound beats every other entry's upper bound,
// its entry is the strict maximum. Otherwise the exact loop runs over the
// entries whose upper bound reaches that lower bound — no other can tie
// the maximum — in index order, so the first-index tie-break holds. A
// non-finite bracket (NaN or infinite prices) sends the pick to the full
// exact loop, whose NaN handling depends on position.
func (m argmax) pick(entries []*Entry, ctx Context) int {
	if len(entries) <= 1 {
		return len(entries) - 1
	}
	best, lo := -1, 0.0
	top, hi1, hi2 := -1, math.Inf(-1), math.Inf(-1)
	for i, e := range entries {
		v, r := m.bracket(e, ctx)
		l, h := v-r, v+r
		if !finite(l) || !finite(h) {
			return m.scan(entries, ctx, math.Inf(-1))
		}
		e.cache.pickHi = h
		if best < 0 || l > lo {
			best, lo = i, l
		}
		if h > hi1 {
			top, hi1, hi2 = i, h, hi1
		} else if h > hi2 {
			hi2 = h
		}
	}
	other := hi1
	if top == best {
		other = hi2
	}
	if other < lo {
		return best
	}
	return m.scan(entries, ctx, lo)
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// scan is the exact argmax loop over the entries whose upper bound in
// the pass just made reaches floor.
func (m argmax) scan(entries []*Entry, ctx Context, floor float64) int {
	best := -1
	var bestV float64
	for i, e := range entries {
		if e.cache.pickHi < floor {
			continue
		}
		v := m.value(e, ctx)
		if best < 0 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Hopeless reports whether invalid-message detection (§5.4, condition
// 11) drops e at now: ε-detection is on and every target's success
// probability is below p.Epsilon. Saturated targets count as exactly 1,
// each other target is decided from its bracket, and SuccessProb runs
// only for a target whose bracket straddles ε.
func Hopeless(e *Entry, now vtime.Millis, p Params) bool {
	if !(p.Epsilon > 0) {
		return false
	}
	c := e.metrics(p.PD)
	for i := range e.Targets {
		t := &e.Targets[i]
		s := 1.0
		if !(now <= c.sure[i]) {
			q, r := successBracket(t, now, e.SizeKB, p.PD)
			if q+r < p.Epsilon {
				continue
			}
			if q-r >= p.Epsilon {
				return false
			}
			s = SuccessProb(*t, now, e.SizeKB, p.PD)
		}
		if s >= p.Epsilon {
			return false
		}
	}
	return true
}
