package core

import "bdps/internal/vtime"

// Naive reference implementations of the scheduling metrics, retained
// verbatim from the pre-optimization code. They are the semantic ground
// truth: the cached fast paths in core.go must return bit-identical
// values (and therefore make identical scheduling decisions), which the
// equivalence suite in equivalence_test.go proves across randomized
// workloads. Nothing outside the tests calls them.

// RefEB is the naive expected benefit (§5.1, eq. 3): one SuccessProb
// evaluation per target, no caching.
func RefEB(e *Entry, ctx Context) float64 {
	var sum float64
	for _, t := range e.Targets {
		sum += SuccessProb(t, ctx.Now, e.SizeKB, ctx.PD) * t.Price
	}
	return sum
}

// RefEBDelayed is the naive EB′ (§5.2, eqs. 6–8).
func RefEBDelayed(e *Entry, ctx Context) float64 {
	var sum float64
	for _, t := range e.Targets {
		sum += SuccessProb(t, ctx.Now+ctx.FT, e.SizeKB, ctx.PD) * t.Price
	}
	return sum
}

// RefPC is the naive postponing cost (§5.2, eq. 9).
func RefPC(e *Entry, ctx Context) float64 {
	return RefEB(e, ctx) - RefEBDelayed(e, ctx)
}

// RefEBPC is the naive combined metric (§5.3, eq. 10), in the same
// EB − (1−r)·EB′ form the optimized EBPC uses.
func RefEBPC(e *Entry, ctx Context, r float64) float64 {
	return RefEB(e, ctx) - (1-r)*RefEBDelayed(e, ctx)
}

// RefMaxSuccess is the naive maximum success probability (§5.4).
func RefMaxSuccess(e *Entry, now vtime.Millis, pd vtime.Millis) float64 {
	var best float64
	for _, t := range e.Targets {
		if p := SuccessProb(t, now, e.SizeKB, pd); p > best {
			best = p
		}
	}
	return best
}

// RefAllExpired is the naive per-target expiry scan.
func RefAllExpired(e *Entry, now vtime.Millis) bool {
	for _, t := range e.Targets {
		if !t.Expired(now) {
			return false
		}
	}
	return true
}

// RefViable is Viable computed with the reference metrics.
func RefViable(e *Entry, now vtime.Millis, p Params) bool {
	if len(e.Targets) == 0 {
		return false
	}
	if RefAllExpired(e, now) {
		return false
	}
	if p.Epsilon > 0 && RefMaxSuccess(e, now, p.PD) < p.Epsilon {
		return false
	}
	return true
}

// Reference wraps a strategy so Pick recomputes every metric with the
// naive reference functions, bypassing all entry caches. Reference(s)
// and s must always agree; the equivalence tests assert exactly that.
func Reference(s Strategy) Strategy { return refStrategy{inner: s} }

type refStrategy struct{ inner Strategy }

// Name implements Strategy.
func (r refStrategy) Name() string { return "ref:" + r.inner.Name() }

// Pick implements Strategy with the naive metric loops. FIFO and RL
// carry no cached state, so their own Pick already is the reference.
func (r refStrategy) Pick(entries []*Entry, ctx Context) int {
	switch s := r.inner.(type) {
	case MaxEB:
		return refPickMax(entries, func(e *Entry) float64 { return RefEB(e, ctx) })
	case MaxPC:
		return refPickMax(entries, func(e *Entry) float64 { return RefPC(e, ctx) })
	case MaxEBPC:
		return refPickMax(entries, func(e *Entry) float64 { return RefEBPC(e, ctx, s.R) })
	}
	return r.inner.Pick(entries, ctx)
}

// refPickMax mirrors the optimized strategies' scan: maximum metric,
// ties broken toward the lower index.
func refPickMax(entries []*Entry, metric func(*Entry) float64) int {
	best := -1
	var bestV float64
	for i, e := range entries {
		v := metric(e)
		if best < 0 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
