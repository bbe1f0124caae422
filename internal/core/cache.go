package core

import (
	"math"

	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// entryCache holds the per-entry scheduling invariants the cached metric
// fast paths use (see EB, EBDelayed, Hopeless, AllExpired, Queue.Prune
// and the brackets in bound.go). It is rebuilt lazily on first use and
// whenever the processing delay changes, and reset by Release so a
// pooled entry starts cold. Queue.Enqueue trusts an already-built cache
// (the producer typically just ran Viable over the final target set), so
// Targets, SizeKB and deadlines stay fixed once any metric has been
// evaluated.
//
// The load-bearing invariant is the per-target saturation time sure[i]:
// for now ≤ sure[i] the target's standardized slack is at least
// stats.SureSigmas, where SuccessProb evaluates to exactly 1.0, so the
// metric loops can add Price without touching math.Erfc and still
// produce bit-identical sums to the naive reference implementations
// (reference_test.go). Targets with Sigma == 0 (point-mass residual rates)
// never saturate under this rule (sure = -Inf); they always take the
// exact path, which is already Erfc-free.
type entryCache struct {
	ready bool
	pd    vtime.Millis // processing delay the invariants assume

	priceSum    float64      // Σ Price, folded in target order
	maxDeadline vtime.Millis // all targets expired iff now > maxDeadline
	minSure     vtime.Millis // now ≤ minSure ⇒ every target is certain
	sure        []vtime.Millis
	// sure0 is the inline backing for sure when the entry has at most
	// four targets — the overwhelmingly common case — so building the
	// cache for a fresh (unpooled) entry allocates nothing.
	sure0 [4]vtime.Millis

	// Memoized metric values, keyed by the evaluation time (and pd via
	// the cache itself). Repeated scoring at one instant — and the EB/EB'
	// pair inside PC and EBPC — hit these instead of rescanning.
	ebAt  vtime.Millis
	eb    float64
	ebOK  bool
	ebdAt vtime.Millis
	ebd   float64
	ebdOK bool

	// pickHi is the metric strategies' Pick scratch: this entry's upper
	// bound in the pick under way, read back when the brackets overlap.
	pickHi float64
}

// metrics returns the entry's invariant cache for the given processing
// delay, (re)building it when stale.
func (e *Entry) metrics(pd vtime.Millis) *entryCache {
	c := &e.cache
	if c.ready && c.pd == pd {
		return c
	}
	c.ready, c.pd = true, pd
	c.ebOK, c.ebdOK = false, false
	c.priceSum = 0
	c.maxDeadline = math.Inf(-1)
	c.minSure = math.Inf(1)
	switch {
	case cap(c.sure) >= len(e.Targets):
		c.sure = c.sure[:0]
	case len(e.Targets) <= len(c.sure0):
		c.sure = c.sure0[:0]
	default:
		c.sure = make([]vtime.Millis, 0, len(e.Targets))
	}
	if len(e.Targets) == 0 {
		// No targets: never certain (and AllExpired is vacuously true).
		c.minSure = math.Inf(-1)
		return c
	}
	size := e.SizeKB
	if size < minSizeKB {
		size = minSizeKB
	}
	for _, t := range e.Targets {
		c.priceSum += t.Price
		if t.Deadline > c.maxDeadline {
			c.maxDeadline = t.Deadline
		}
		sure := math.Inf(-1)
		if t.Rate.Sigma > 0 {
			// SuccessProb == 1.0 exactly while
			//   slack/size ≥ μ + SureSigmas·σ,
			// i.e. until `sure` below. span > 0 also guarantees
			// sure < deadline − hops·pd, so a certain target is never
			// expired — the invariant Queue.Prune's skip relies on.
			span := size * (t.Rate.Mean + stats.SureSigmas*t.Rate.Sigma)
			if span > 0 {
				sure = t.Deadline - float64(t.Hops)*pd - span
			}
		}
		c.sure = append(c.sure, sure)
		if sure < c.minSure {
			c.minSure = sure
		}
	}
	return c
}
