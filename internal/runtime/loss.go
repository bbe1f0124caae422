package runtime

import (
	"math"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// This file is the shared half of the lossy-network adversary and the
// reliable channel that heals it. The design invariant both backends
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
// admits it, else abandon. Both backends call this with identical
// arguments, which is what makes the loss counters agree exactly.
// targets are the popped entry's (still owned by the caller: resolve
// before releasing it); the hop-effective deadline that gates
// retransmissions is derived from them at the frame's first loss, so a
// clean link — or a frame the adversary spares — never pays for it.
//
// The caller charges link time for Attempts transmissions (+1 when Dup),
// drawing rate samples in that order from the link's stream, and accounts
// Losses as FrameLost, Retransmits as Retransmit, and an abandoned frame
// as DroppedDeadline.
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

// RecvState restores exactly-once FIFO delivery on the receiving end of
// one lossy link: a cumulative expected-sequence cursor plus a bounded
// buffer of ahead-of-order frames. The cursor makes dedup O(1) and
// inherently generation-bounded — everything below `expected` is a
// duplicate, no per-ID set to expire.
type RecvState struct {
	expected uint64 // next in-order sequence (first frame is 1)
	buf      map[uint64]*msg.Message
	window   int
}

// NewRecvState returns receiver state with the given reorder window.
func NewRecvState(window int) *RecvState {
	if window <= 0 {
		window = 64
	}
	return &RecvState{expected: 1, window: window}
}

// Pending is the number of buffered out-of-order frames.
func (r *RecvState) Pending() int { return len(r.buf) }

// Accept runs one arriving frame through dedup and FIFO restoration.
// `base` is the sender's lowest still-live sequence (frames below it were
// delivered or abandoned and must not be waited for). Messages now
// deliverable in order are appended to deliver; dup reports a suppressed
// duplicate (the caller owns the rejected message), and healed counts how
// many of the returned messages came out of the reorder buffer.
func (r *RecvState) Accept(seq, base uint64, m *msg.Message, deliver []*msg.Message) (out []*msg.Message, dup bool, healed int) {
	out = deliver
	if base > r.expected {
		// The sender abandoned everything below base: stop waiting for it.
		r.expected = base
		out, healed = r.drain(out, healed)
	}
	switch {
	case seq < r.expected:
		return out, true, healed
	case seq == r.expected:
		out = append(out, m)
		r.expected++
		out, healed = r.drain(out, healed)
	default:
		if r.buf == nil {
			r.buf = make(map[uint64]*msg.Message)
		}
		if _, dup := r.buf[seq]; dup {
			return out, true, healed
		}
		r.buf[seq] = m
		if len(r.buf) >= r.window {
			// Pathological gap (a peer restarted mid-stream): give up on
			// strict FIFO and advance to the lowest buffered frame rather
			// than wedge the link.
			low := seq
			for s := range r.buf {
				if s < low {
					low = s
				}
			}
			r.expected = low
			out, healed = r.drain(out, healed)
		}
	}
	return out, false, healed
}

// drain releases consecutively buffered frames from the cursor onward.
func (r *RecvState) drain(out []*msg.Message, healed int) ([]*msg.Message, int) {
	for {
		m, ok := r.buf[r.expected]
		if !ok {
			return out, healed
		}
		delete(r.buf, r.expected)
		r.expected++
		out = append(out, m)
		healed++
	}
}

// LossModel returns the adversary one plan link faces, or nil for a clean
// link. Exactly one LinkLoss fault can cover an arc (validateFaults).
func (p *Plan) LossModel(l Link) *LossModel {
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

// RetryPolicy derives one link's retransmission policy from the run's
// reliability config and the link's rate belief.
func (p *Plan) RetryPolicy(l Link) RetryPolicy {
	return NewRetryPolicy(p.Cfg.Reliability, p.Beliefs(l.From, l.To), p.Cfg.Params.PD)
}
