// Package core implements the paper's primary contribution (§5): message
// scheduling strategies for bounded-delay delivery in publish/subscribe
// broker overlays.
//
// A broker keeps one output Queue per downstream link. When the link
// becomes free, a Strategy picks the next queued Entry. The proposed
// strategies rank entries by probabilistic metrics over the residual path
// to each interested subscriber:
//
//   - EB (expected benefit): Σᵢ success(sᵢ, m) · price(sᵢ) — the earning
//     expected if the message is sent first here and on every remaining
//     broker (§5.1).
//   - PC (postponing cost): EB − EB′, where EB′ recomputes success as if
//     the message were sent second on this broker (its residual delay
//     grows by FT, the expected time to transmit one average-size
//     message); PC measures urgency (§5.2).
//   - EBPC: r·EB + (1−r)·PC, r ∈ [0,1] (§5.3).
//
// The baselines the paper compares against — FIFO and minimum remaining
// lifetime first (RL) — are implemented on the same Queue.
//
// Invalid-message detection (§5.4): a queued message is deleted when every
// target's success probability falls below ε (default 0.05% per the
// paper), and, for all strategies, when every target's deadline has
// passed.
//
// The package is deliberately substrate-free: it depends only on the time
// base and the probability layer, so the same scheduler drives both the
// discrete-event simulator and the live TCP runtime.
package core

import (
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// DefaultPD is the per-broker processing delay used throughout the
// paper's evaluation (§6.1).
const DefaultPD vtime.Millis = 2

// DefaultEpsilon is the invalid-message detection threshold ε = 0.05%
// (§5.4).
const DefaultEpsilon = 0.0005

// minSizeKB guards the division by message size in the success
// probability; no real message is smaller than one byte.
const minSizeKB = 1.0 / 1024

// Params are the broker-wide scheduling parameters.
type Params struct {
	// PD is the processing delay every broker charges per message.
	PD vtime.Millis
	// Epsilon enables invalid-message detection when > 0: a message all
	// of whose targets have success probability below Epsilon is deleted
	// from the queue.
	Epsilon float64
}

// DefaultParams returns the paper's evaluation parameters.
func DefaultParams() Params {
	return Params{PD: DefaultPD, Epsilon: DefaultEpsilon}
}

// For returns the parameters strategy s runs with: the traditional
// baselines (FIFO, RL) have no invalid-message detection, so they run
// with ε = 0 and drop only expired messages.
func (p Params) For(s Strategy) Params {
	switch s.(type) {
	case FIFO, RL:
		p.Epsilon = 0
	}
	return p
}

// Target is one subscriber a queued message must still reach through this
// queue's link: the absolute deadline, the price the subscriber pays for
// a valid delivery, and the residual-path statistics from the routing
// table (§4.2).
//
// In the PSD scenario the deadline derives from the publisher's bound and
// Price is 1; in the SSD scenario both come from the subscription (§5:
// "set the price ... to be 1, and change the delay requirement to be
// specified by publishers").
type Target struct {
	SubID    int32        // subscription id, for accounting
	Deadline vtime.Millis // absolute: publish time + allowed delay
	Price    float64
	Hops     int          // NN_p: remaining downstream brokers (= links)
	Rate     stats.Normal // residual path per-KB time TR_p
}

// Expired reports whether the target's deadline has passed.
func (t Target) Expired(now vtime.Millis) bool { return now > t.Deadline }

// Entry is a message waiting in an output queue, with the targets it
// serves via this queue's link. Entries are pooled (GetEntry / Release)
// and carry a metric cache (cache.go), so an entry's targets are fixed
// once any metric has been evaluated on it.
type Entry struct {
	MsgID     uint64
	Seq       uint64       // arrival order within the queue (set by Enqueue)
	SizeKB    float64      // message size; propagation = SizeKB · TR
	Published vtime.Millis // publication timestamp (hdl = now − Published)
	Enqueued  vtime.Millis // when the entry joined this queue
	Targets   []Target
	Data      any // opaque payload for the embedding runtime

	cache entryCache
}

// Context carries the per-decision inputs of the metric functions.
type Context struct {
	Now vtime.Millis
	PD  vtime.Millis // per-broker processing delay
	FT  vtime.Millis // expected time to send one average message first (§5.2)
}

// SuccessProb computes success(s, m) = P(hdl + fdl ≤ adl) of §5.1 in
// absolute-time form: the message succeeds if the residual delay
// NN_p·PD + SizeKB·TR_p fits in the slack before the target's deadline.
// With TR_p ~ N(μ_p, σ_p²):
//
//	success = Φ(((deadline − now − Hops·PD)/size − μ_p)/σ_p)
//
// A non-positive slack returns 0 (transmission time cannot be negative,
// so the normal model's tiny below-zero mass is clamped away; this also
// makes expired targets contribute nothing to EB).
func SuccessProb(t Target, now vtime.Millis, sizeKB float64, pd vtime.Millis) float64 {
	slack := t.Deadline - now - float64(t.Hops)*pd
	if slack <= 0 {
		return 0
	}
	if sizeKB < minSizeKB {
		sizeKB = minSizeKB
	}
	return t.Rate.CDF(slack / sizeKB)
}

// EB is the expected benefit of sending e first (§5.1, eq. 3).
//
// This is the cached fast path: targets whose saturation time has not
// passed contribute exactly Price without an Erfc evaluation, and a
// fully saturated entry returns the precomputed price sum. The value is
// bit-identical to RefEB (proved by the equivalence suite) and memoized
// per evaluation instant.
func EB(e *Entry, ctx Context) float64 {
	c := e.metrics(ctx.PD)
	if c.ebOK && c.ebAt == ctx.Now {
		return c.eb
	}
	v := benefitAt(e, c, ctx.Now)
	c.ebOK, c.ebAt, c.eb = true, ctx.Now, v
	return v
}

// EBDelayed is EB′: the expected benefit when this broker sends the
// message second, i.e. after FT more milliseconds (§5.2, eqs. 6–8).
// Cached like EB, keyed by the delayed instant now+FT.
func EBDelayed(e *Entry, ctx Context) float64 {
	c := e.metrics(ctx.PD)
	at := ctx.Now + ctx.FT
	if c.ebdOK && c.ebdAt == at {
		return c.ebd
	}
	v := benefitAt(e, c, at)
	c.ebdOK, c.ebdAt, c.ebd = true, at, v
	return v
}

// benefitAt sums success·price at the given instant, shortcutting
// saturated targets. The summation order and every floating-point
// operation on the exact path match RefEB term for term, so the result
// is bit-identical to the naive loop (a saturated target's naive term is
// fl(1.0·Price) = Price).
func benefitAt(e *Entry, c *entryCache, at vtime.Millis) float64 {
	if at <= c.minSure {
		return c.priceSum
	}
	var sum float64
	for i := range e.Targets {
		t := &e.Targets[i]
		if at <= c.sure[i] {
			sum += t.Price
		} else {
			sum += SuccessProb(*t, at, e.SizeKB, c.pd) * t.Price
		}
	}
	return sum
}

// PC is the postponing cost EB − EB′ (§5.2, eq. 9). It is non-negative:
// delaying a send can only reduce each target's success probability.
func PC(e *Entry, ctx Context) float64 {
	return EB(e, ctx) - EBDelayed(e, ctx)
}

// EBPC combines benefit and urgency with weight r (§5.3, eq. 10).
// Algebraically r·EB + (1−r)·PC = r·EB + (1−r)·(EB − EB′) = EB − (1−r)·EB′,
// which needs each success probability once instead of twice.
func EBPC(e *Entry, ctx Context, r float64) float64 {
	return EB(e, ctx) - (1-r)*EBDelayed(e, ctx)
}

// AvgRemainingLifetime is the RL baseline's metric. A message may have one
// remaining lifetime per interested subscriber; following §6.1 the average
// is used. It can be negative when deadlines have passed.
func AvgRemainingLifetime(e *Entry, now vtime.Millis) vtime.Millis {
	if len(e.Targets) == 0 {
		return 0
	}
	var sum vtime.Millis
	for _, t := range e.Targets {
		sum += t.Deadline - now
	}
	return sum / vtime.Millis(len(e.Targets))
}

// AllExpired reports whether every target's deadline has passed. With a
// warm cache this is one comparison against the precomputed latest
// deadline; the comparison semantics match the per-target scan exactly.
func AllExpired(e *Entry, now vtime.Millis) bool {
	if e.cache.ready {
		return now > e.cache.maxDeadline
	}
	for _, t := range e.Targets {
		if !t.Expired(now) {
			return false
		}
	}
	return true
}

// Viable reports whether an entry is worth enqueueing (or keeping) under
// the given parameters: not fully expired, and, when ε-detection is on,
// not hopeless.
func Viable(e *Entry, now vtime.Millis, p Params) bool {
	if len(e.Targets) == 0 {
		return false
	}
	if AllExpired(e, now) {
		return false
	}
	return !Hopeless(e, now, p)
}
