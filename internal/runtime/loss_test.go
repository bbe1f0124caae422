package runtime

import (
	"math"
	"math/rand/v2"
	"testing"

	"bdps/internal/core"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// refEffectiveDeadline is the hop-effective deadline as it was computed
// eagerly, once per popped entry on every link, kept verbatim (one
// normal quantile per target) as the reference for the hoisted-z form.
func refEffectiveDeadline(rp RetryPolicy, targets []core.Target, sizeKB float64) vtime.Millis {
	if !rp.DeadlineAware || len(targets) == 0 {
		return vtime.Inf
	}
	best := math.Inf(-1)
	for _, t := range targets {
		down := stats.Normal{
			Mean:  math.Max(0, t.Rate.Mean-rp.Belief.Mean),
			Sigma: math.Sqrt(math.Max(0, t.Rate.Sigma*t.Rate.Sigma-rp.Belief.Sigma*rp.Belief.Sigma)),
		}
		need := float64(t.Hops-1)*float64(rp.PD) + sizeKB*down.Quantile(rp.SuccessTarget)
		if need < 0 {
			need = 0
		}
		if d := float64(t.Deadline) - need; d > best {
			best = d
		}
	}
	return vtime.Millis(best)
}

// refResolveSend is ResolveSend as it was when callers handed it the
// deadline they had computed up front.
func refResolveSend(lm *LossModel, rp RetryPolicy, seq uint64, sizeKB float64, deadline, now vtime.Millis) SendOutcome {
	out := SendOutcome{}
	if lm == nil {
		out.Attempts, out.Deliver = 1, true
		return out
	}
	for attempt := 0; ; attempt++ {
		out.Attempts++
		if !lm.Lose(seq, attempt, now) {
			out.Deliver = true
			out.Dup = lm.Duplicate(seq, now)
			return out
		}
		out.Losses++
		if !rp.Admit(attempt+1, sizeKB, deadline, now) {
			return out
		}
		out.Retransmits++
	}
}

// randTargets draws an entry's targets: residual paths of 1–4 hops whose
// statistics contain the link's own belief (as routing builds them), a
// deterministic path now and then (Sigma 0), deadlines from hopeless to
// roomy.
func randTargets(rng *rand.Rand, belief stats.Normal, now vtime.Millis) []core.Target {
	ts := make([]core.Target, 1+rng.IntN(4))
	for i := range ts {
		hops := 1 + rng.IntN(4)
		rate := belief
		for h := 1; h < hops; h++ {
			rate = stats.SumNormal(rate, stats.Normal{Mean: 50 + 50*rng.Float64(), Sigma: 20 * rng.Float64()})
		}
		if rng.IntN(8) == 0 {
			rate.Sigma = belief.Sigma // the downstream path is deterministic
		}
		ts[i] = core.Target{
			SubID:    int32(i),
			Deadline: now + vtime.Millis(rng.Float64()*40000),
			Price:    1,
			Hops:     hops,
			Rate:     rate,
		}
	}
	return ts
}

// TestResolveSendLazyDeadlineMatchesEager: over lossy seeds, policies
// and random entries, deriving the hop-effective deadline inside
// ResolveSend at the first loss gives the outcome — attempts, losses,
// retransmits, delivery, duplicate, hence the caller's rate-sample
// order — that computing it eagerly for every frame gave; and the
// hoisted quantile reproduces the per-target one bit for bit.
func TestResolveSendLazyDeadlineMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	belief := stats.Normal{Mean: 75, Sigma: 20}
	lost, abandoned, retried := 0, 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, rel := range []Reliability{
			{},
			{SuccessTarget: 0.9},
			{SuccessTarget: 0.5, MaxAttempts: 4},
			{BlindRetry: true},
			{NoRetry: true},
		} {
			rel.setDefaults()
			rp := NewRetryPolicy(rel, belief, core.DefaultPD)
			lm := NewLossModel(seed, int(seed)%5, LinkLoss{Rate: 0.3, Dup: 0.1, Start: 0, End: 0})
			for seq := uint64(1); seq <= 3000; seq++ {
				now := vtime.Millis(seq) * 40
				size := 1 + 99*rng.Float64()
				targets := randTargets(rng, belief, now)
				eager := refEffectiveDeadline(rp, targets, size)
				if got := rp.effectiveDeadline(targets, size); got != eager {
					t.Fatalf("seed %d seq %d: effective deadline %v, reference %v", seed, seq, got, eager)
				}
				got := ResolveSend(lm, rp, seq, size, targets, now)
				want := refResolveSend(lm, rp, seq, size, eager, now)
				if got != want {
					t.Fatalf("seed %d %+v seq %d: lazy %+v, eager %+v", seed, rel, seq, got, want)
				}
				if got.Losses > 0 {
					lost++
				}
				if !got.Deliver {
					abandoned++
				}
				retried += got.Retransmits
			}
		}
	}
	if lost == 0 || abandoned == 0 || retried == 0 {
		t.Fatalf("the draws never exercised a path: %d lost, %d abandoned, %d retransmits", lost, abandoned, retried)
	}
}

// TestResolveSendSparesCleanFrames: a frame no transmission of which is
// lost never looks at its targets — on a clean link (no adversary), on
// a lossy link outside its fault window, and on the frames an active
// adversary spares. Targets whose every statistic is NaN would poison
// any deadline derived from them; the outcome is the clean one anyway.
func TestResolveSendSparesCleanFrames(t *testing.T) {
	nan := math.NaN()
	poison := []core.Target{{Deadline: nan, Hops: 3, Rate: stats.Normal{Mean: nan, Sigma: nan}}}
	var rel Reliability
	rel.setDefaults()
	rp := NewRetryPolicy(rel, stats.Normal{Mean: 75, Sigma: 20}, core.DefaultPD)
	if rp.z != stats.StdNormalQuantile(rel.SuccessTarget) {
		t.Fatalf("policy quantile %v, want Φ⁻¹(%v)", rp.z, rel.SuccessTarget)
	}
	clean := SendOutcome{Attempts: 1, Deliver: true}
	if got := ResolveSend(nil, rp, 1, 50, poison, 0); got != clean {
		t.Fatalf("clean link: %+v, want %+v", got, clean)
	}
	windowed := NewLossModel(1, 0, LinkLoss{Rate: 0.9, Start: 1000, End: 2000})
	if got := ResolveSend(windowed, rp, 1, 50, poison, 500); got != clean {
		t.Fatalf("before the fault window: %+v, want %+v", got, clean)
	}
	lm := NewLossModel(1, 0, LinkLoss{Rate: 0.3})
	spared := 0
	for seq := uint64(1); seq <= 500; seq++ {
		if lm.Lose(seq, 0, 0) {
			continue
		}
		spared++
		if got := ResolveSend(lm, rp, seq, 50, poison, 0); got != clean {
			t.Fatalf("spared frame %d: %+v, want %+v", seq, got, clean)
		}
	}
	if spared == 0 {
		t.Fatal("the adversary spared no frame")
	}
}
