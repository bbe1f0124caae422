package runtime

import (
	"math"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// This file is the lossy-network adversary and the retransmission policy
// that answers it; link.go's two halves drive them on both backends and
// heal what gets through. The design invariant both backends
// lean on: every loss/dup/reorder decision is a pure function of
// (run seed, link index, sequence number, attempt), so the simulator and
// the live overlay face the *identical* adversary and agree exactly on
// FramesLost / Retransmits / DupsSuppressed / DroppedDeadline. The
// adversary sits at the sender's egress: a lost transmission is known
// synchronously and retried head-of-line (the next attempt pays the link
// time again), which keeps per-link delivery FIFO and needs no
// timing-dependent retransmission timers that would break cross-backend
// determinism.

// Decision kinds keyed into the adversary hash.
const (
	lossKindDrop uint64 = iota + 1
	lossKindDup
	lossKindReorder
)

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// mixer whose output bits pass PractRand — ample for Bernoulli draws.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// LossModel is the per-link adversary of one LinkLoss fault. Decisions
// are deterministic in (seed, link, seq, attempt); Start/End gate the
// active window on the run clock.
type LossModel struct {
	seed       uint64
	rate       float64
	dup        float64
	reorder    float64
	start, end vtime.Millis
}

// NewLossModel builds the adversary one directed link faces under a
// LinkLoss fault. linkIndex must be the link's position in the plan's
// deterministic enumeration (Plan.Links) so both backends key the same
// decision stream.
func NewLossModel(seed uint64, linkIndex int, f LinkLoss) *LossModel {
	return &LossModel{
		seed:    mix64(seed^0xBD75) ^ mix64(uint64(linkIndex)+0x10001),
		rate:    f.Rate,
		dup:     f.Dup,
		reorder: f.Reorder,
		start:   f.Start,
		end:     f.End,
	}
}

// active reports whether the fault window covers the instant.
func (lm *LossModel) active(now vtime.Millis) bool {
	if lm == nil || now < lm.start {
		return false
	}
	return lm.end <= 0 || now < lm.end
}

// draw maps one (kind, seq, attempt) decision to a uniform [0,1).
func (lm *LossModel) draw(kind, seq uint64, attempt int) float64 {
	h := mix64(lm.seed ^ mix64(seq+1) ^ mix64(kind<<32|uint64(attempt)))
	return float64(h>>11) / float64(1<<53)
}

// Lose reports whether the adversary drops transmission `attempt`
// (0-based) of frame seq.
func (lm *LossModel) Lose(seq uint64, attempt int, now vtime.Millis) bool {
	return lm.active(now) && lm.draw(lossKindDrop, seq, attempt) < lm.rate
}

// Duplicate reports whether the adversary duplicates the delivered copy
// of frame seq. Independent of the attempt that finally delivered it, so
// the decision is loss-schedule-invariant.
func (lm *LossModel) Duplicate(seq uint64, now vtime.Millis) bool {
	return lm.active(now) && lm.draw(lossKindDup, seq, 0) < lm.dup
}

// Swap reports whether the adversary reorders frame seq behind its
// successor on the wire.
func (lm *LossModel) Swap(seq uint64, now vtime.Millis) bool {
	return lm.active(now) && lm.draw(lossKindReorder, seq, 0) < lm.reorder
}

// RetryPolicy is the retransmission policy one link's sender applies,
// derived from Config.Reliability plus the link's rate belief — the same
// inputs on both backends. Build deadline-aware policies with
// NewRetryPolicy, which also fixes the quantile their deadlines use.
type RetryPolicy struct {
	// Enabled: retransmit at all (false = the loss-no-retry arm).
	Enabled bool
	// DeadlineAware gates every retransmission on remaining slack.
	DeadlineAware bool
	// MaxAttempts caps total transmissions per frame.
	MaxAttempts int
	// SuccessTarget is the delivery probability the remaining slack must
	// keep for a retransmission to be admitted.
	SuccessTarget float64
	// Belief is the sender's rate distribution for this link (ms/KB).
	Belief stats.Normal
	// PD is the per-hop processing delay the admission math charges.
	PD vtime.Millis

	// z is Φ⁻¹(SuccessTarget), the standard quantile effectiveDeadline
	// scales every downstream sigma by; NewRetryPolicy computes it once
	// per link instead of once per target per frame.
	z float64
}

// NewRetryPolicy derives one link's retransmission policy from a
// (defaulted) reliability config, the link's rate belief and the per-hop
// processing delay.
func NewRetryPolicy(rel Reliability, belief stats.Normal, pd vtime.Millis) RetryPolicy {
	return RetryPolicy{
		Enabled:       !rel.NoRetry,
		DeadlineAware: !rel.BlindRetry,
		MaxAttempts:   rel.MaxAttempts,
		SuccessTarget: rel.SuccessTarget,
		Belief:        belief,
		PD:            pd,
		z:             stats.StdNormalQuantile(rel.SuccessTarget),
	}
}

// Admit decides whether transmission number `attempt` (0-based; ≥ 1 means
// a retransmission) may be scheduled for a frame of sizeKB due at
// `deadline` — the hop-effective deadline from effectiveDeadline, not the
// raw end-to-end one. Deadline-aware mode replays the paper's admission
// CDF (renegotiateBound with a single link and no relaxation): after
// charging the transmissions already spent at this link's expected rate,
// the remaining slack must still carry this hop with probability ≥
// SuccessTarget.
func (rp RetryPolicy) Admit(attempt int, sizeKB float64, deadline, now vtime.Millis) bool {
	if !rp.Enabled || attempt >= rp.MaxAttempts {
		return false
	}
	if !rp.DeadlineAware || math.IsInf(float64(deadline), 1) {
		return true
	}
	spent := vtime.Millis(float64(attempt) * sizeKB * rp.Belief.Mean)
	remaining := deadline - now - spent
	if remaining <= 0 {
		return false
	}
	_, verdict := renegotiateBound(remaining, 1, rp.Belief, sizeKB, rp.PD, rp.SuccessTarget, 1)
	return verdict == boundKept
}

// effectiveDeadline tightens a frame's end-to-end deadlines into the
// latest instant at which THIS hop's transfer may complete while some
// target remains worth serving: per target, the residual path beyond this
// link — estimated by peeling the link's own belief out of the target's
// residual-path statistics (independent links: means and variances
// subtract) — must still fit, at its SuccessTarget quantile plus the
// remaining hops' processing delay, between the hop's completion and the
// target's deadline. The max over targets applies: a retransmission is
// worth scheduling while any subscriber can still be reached in time.
// Gating retries on this hop-effective deadline is what keeps an admitted
// retry from stranding the message one hop later: slack the downstream
// path needs is never spent re-sending here. ResolveSend is the one
// caller: the value only matters once a transmission has been lost.
func (rp RetryPolicy) effectiveDeadline(targets []core.Target, sizeKB float64) vtime.Millis {
	if !rp.DeadlineAware || len(targets) == 0 {
		return vtime.Inf
	}
	best := math.Inf(-1)
	for _, t := range targets {
		// The downstream path's SuccessTarget quantile, Mean + Sigma·z
		// (a deterministic path, Sigma 0, is its mean whatever z is).
		q := math.Max(0, t.Rate.Mean-rp.Belief.Mean)
		if sigma := math.Sqrt(math.Max(0, t.Rate.Sigma*t.Rate.Sigma-rp.Belief.Sigma*rp.Belief.Sigma)); sigma != 0 {
			q += sigma * rp.z
		}
		need := float64(t.Hops-1)*float64(rp.PD) + sizeKB*q
		if need < 0 {
			need = 0
		}
		if d := float64(t.Deadline) - need; d > best {
			best = d
		}
	}
	return vtime.Millis(best)
}

// SendOutcome is the resolved fate of one frame against the adversary:
// how many transmissions are paced, whether the frame ultimately
// delivers, and whether the delivered copy is duplicated.
type SendOutcome struct {
	// Attempts is the number of paced transmissions (losses plus the
	// delivering send; the duplicate copy is charged separately).
	Attempts int
	// Losses is how many of those transmissions the adversary dropped.
	Losses int
	// Retransmits is how many re-sends the policy admitted (= Losses when
	// Deliver, Losses-1 when the frame was abandoned after its last try).
	Retransmits int
	// Deliver is false when the frame was abandoned (DroppedDeadline).
	Deliver bool
	// Dup marks a duplicated delivered copy.
	Dup bool
}

// ResolveSend plays one frame's head-of-line send chain against the
// adversary: transmit, and on a loss retransmit immediately if the policy
// admits it, else abandon. LinkSend.Resolve (link.go) is the one caller,
// on both backends, which is what makes the loss counters agree exactly.
// targets are the popped entry's; the hop-effective deadline that gates
// retransmissions is derived from them at the frame's first loss, so a
// clean link — or a frame the adversary spares — never pays for it.
func ResolveSend(lm *LossModel, rp RetryPolicy, seq uint64, sizeKB float64, targets []core.Target, now vtime.Millis) SendOutcome {
	out := SendOutcome{}
	if lm == nil {
		out.Attempts, out.Deliver = 1, true
		return out
	}
	var deadline vtime.Millis
	for attempt := 0; ; attempt++ {
		out.Attempts++
		if !lm.Lose(seq, attempt, now) {
			out.Deliver = true
			out.Dup = lm.Duplicate(seq, now)
			return out
		}
		if out.Losses == 0 {
			deadline = rp.effectiveDeadline(targets, sizeKB)
		}
		out.Losses++
		if !rp.Admit(attempt+1, sizeKB, deadline, now) {
			return out
		}
		out.Retransmits++
	}
}

// lossModel returns the adversary one plan link faces, or nil for a clean
// link. Exactly one LinkLoss fault can cover an arc (validateFaults).
func (p *Plan) lossModel(l Link) *LossModel {
	for _, f := range p.Cfg.Faults {
		ll, ok := f.(LinkLoss)
		if !ok {
			continue
		}
		wild := ll.From == msg.None && ll.To == msg.None
		if wild || (ll.From == l.From && ll.To == l.To) {
			return NewLossModel(p.Cfg.Seed, l.Index, ll)
		}
	}
	return nil
}
