package core

import (
	"math"
	"testing"
	"testing/quick"

	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// target builds a Target with the paper's canonical shape: deadline in
// absolute ms, residual path of hops links each N(70, 20²) ms/KB.
func target(deadline vtime.Millis, price float64, hops int) Target {
	return Target{
		Deadline: deadline,
		Price:    price,
		Hops:     hops,
		Rate:     stats.Normal{Mean: 70 * float64(hops), Sigma: 20 * math.Sqrt(float64(hops))},
	}
}

func entry(published vtime.Millis, targets ...Target) *Entry {
	return &Entry{SizeKB: 50, Published: published, Targets: targets}
}

func TestSuccessProbHandComputed(t *testing.T) {
	// One hop left: rate N(70,20), PD=2ms, size 50KB, deadline 10s,
	// now = 2s. slack = 10000-2000-2 = 7998 ms; x = 159.96 ms/KB;
	// z = (159.96-70)/20 = 4.498 → Φ ≈ 0.999996...
	tg := target(10*vtime.Second, 1, 1)
	got := SuccessProb(tg, 2*vtime.Second, 50, 2)
	want := stats.StdNormalCDF((7998.0/50 - 70) / 20)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SuccessProb = %v, want %v", got, want)
	}
	if got < 0.99999 {
		t.Errorf("comfortable slack should be near-certain, got %v", got)
	}
}

func TestSuccessProbTightDeadline(t *testing.T) {
	// slack exactly matches the mean: success should be 0.5.
	tg := Target{Deadline: 1000, Hops: 1, Rate: stats.Normal{Mean: 10, Sigma: 2}, Price: 1}
	// slack = 1000 - now - 2; want slack/size = 10 → slack = 500 with
	// size 50 → now = 498.
	got := SuccessProb(tg, 498, 50, 2)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("success at mean slack = %v, want 0.5", got)
	}
}

func TestSuccessProbExpiredIsZero(t *testing.T) {
	tg := target(1000, 1, 1)
	if got := SuccessProb(tg, 1001, 50, 2); got != 0 {
		t.Errorf("expired target success = %v, want 0", got)
	}
	// Slack consumed entirely by processing delay.
	tg2 := Target{Deadline: 1000, Hops: 3, Rate: stats.Normal{Mean: 70, Sigma: 20}}
	if got := SuccessProb(tg2, 994, 50, 2); got != 0 {
		t.Errorf("PD-consumed slack success = %v, want 0", got)
	}
}

func TestSuccessProbMonotoneInTime(t *testing.T) {
	// Success can only decay as the message ages.
	tg := target(30*vtime.Second, 1, 3)
	prev := 1.1
	for now := vtime.Millis(0); now <= 31*vtime.Second; now += 500 {
		p := SuccessProb(tg, now, 50, 2)
		if p > prev+1e-15 {
			t.Fatalf("success increased at t=%v: %v > %v", now, p, prev)
		}
		prev = p
	}
}

func TestSuccessProbMonotoneQuick(t *testing.T) {
	prop := func(deadlineS, nowS, dtS float64, hops uint8) bool {
		if anyBad(deadlineS, nowS, dtS) {
			return true
		}
		deadline := math.Mod(math.Abs(deadlineS), 60) * vtime.Second
		now := math.Mod(math.Abs(nowS), 60) * vtime.Second
		dt := math.Mod(math.Abs(dtS), 10) * vtime.Second
		h := int(hops%4) + 1
		tg := target(deadline, 1, h)
		p1 := SuccessProb(tg, now, 50, 2)
		p2 := SuccessProb(tg, now+dt, 50, 2)
		return p2 <= p1+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

func TestSuccessProbTinySizeGuard(t *testing.T) {
	tg := target(10*vtime.Second, 1, 1)
	if got := SuccessProb(tg, 0, 0, 2); math.IsNaN(got) || got <= 0 {
		t.Errorf("zero-size message should still compute: %v", got)
	}
}

func TestEBSumsPriceWeightedSuccess(t *testing.T) {
	// Two certain targets with prices 3 and 2 → EB ≈ 5; one expired
	// target adds nothing.
	e := entry(0,
		target(60*vtime.Second, 3, 1),
		target(60*vtime.Second, 2, 1),
		target(1, 7, 1), // expired at now=10s
	)
	ctx := Context{Now: 10 * vtime.Second, PD: 2}
	got := EB(e, ctx)
	if got < 4.99 || got > 5 {
		t.Errorf("EB = %v, want ≈5", got)
	}
}

func TestEBMonotoneInPrice(t *testing.T) {
	ctx := Context{Now: 0, PD: 2}
	cheap := entry(0, target(20*vtime.Second, 1, 2))
	dear := entry(0, target(20*vtime.Second, 3, 2))
	if EB(cheap, ctx) >= EB(dear, ctx) {
		t.Error("EB must grow with price")
	}
}

func TestEBMonotoneInSubscriberCount(t *testing.T) {
	ctx := Context{Now: 0, PD: 2}
	one := entry(0, target(20*vtime.Second, 1, 2))
	two := entry(0, target(20*vtime.Second, 1, 2), target(20*vtime.Second, 1, 2))
	if EB(two, ctx) <= EB(one, ctx) {
		t.Error("EB must grow with matched subscriptions")
	}
}

func TestPCNonNegativeAndZeroFT(t *testing.T) {
	e := entry(0, target(12*vtime.Second, 1, 2))
	ctx := Context{Now: 4 * vtime.Second, PD: 2, FT: 3500}
	if pc := PC(e, ctx); pc < 0 {
		t.Errorf("PC = %v, must be >= 0", pc)
	}
	ctx.FT = 0
	if pc := PC(e, ctx); pc != 0 {
		t.Errorf("PC with FT=0 = %v, want 0", pc)
	}
}

func TestPCQuickNonNegative(t *testing.T) {
	prop := func(deadlineS, nowS, ftS float64, hops uint8) bool {
		if anyBad(deadlineS, nowS, ftS) {
			return true
		}
		deadline := math.Mod(math.Abs(deadlineS), 60) * vtime.Second
		now := math.Mod(math.Abs(nowS), 60) * vtime.Second
		ft := math.Mod(math.Abs(ftS), 10) * vtime.Second
		e := entry(0, target(deadline, 2, int(hops%4)+1))
		return PC(e, Context{Now: now, PD: 2, FT: ft}) >= -1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPCUrgencyOrdering(t *testing.T) {
	// A safe message (huge slack) has tiny PC; a borderline one has large
	// PC: postponing it genuinely risks missing the deadline.
	ctx := Context{Now: 0, PD: 2, FT: 3500}
	safe := entry(0, target(60*vtime.Second, 1, 1))
	urgent := entry(0, target(4200, 1, 1)) // slack ≈ 4.2 s vs 3.5 s send time
	if PC(safe, ctx) >= PC(urgent, ctx) {
		t.Errorf("urgent PC (%v) must exceed safe PC (%v)",
			PC(urgent, ctx), PC(safe, ctx))
	}
}

func TestEBPCEndpoints(t *testing.T) {
	e := entry(0, target(12*vtime.Second, 2, 2), target(8*vtime.Second, 1, 1))
	ctx := Context{Now: 3 * vtime.Second, PD: 2, FT: 3000}
	if got, want := EBPC(e, ctx, 1), EB(e, ctx); math.Abs(got-want) > 1e-12 {
		t.Errorf("EBPC(r=1) = %v, want EB = %v", got, want)
	}
	if got, want := EBPC(e, ctx, 0), PC(e, ctx); math.Abs(got-want) > 1e-12 {
		t.Errorf("EBPC(r=0) = %v, want PC = %v", got, want)
	}
	mid := EBPC(e, ctx, 0.5)
	if math.Abs(mid-(0.5*EB(e, ctx)+0.5*PC(e, ctx))) > 1e-12 {
		t.Errorf("EBPC(r=0.5) = %v not the midpoint", mid)
	}
}

func TestAvgRemainingLifetime(t *testing.T) {
	e := entry(0, target(10*vtime.Second, 1, 1), target(30*vtime.Second, 1, 1))
	if got := AvgRemainingLifetime(e, 5*vtime.Second); got != 15*vtime.Second {
		t.Errorf("avg RL = %v, want 15s", got)
	}
	// Negative when expired.
	if got := AvgRemainingLifetime(e, 40*vtime.Second); got >= 0 {
		t.Errorf("avg RL after deadlines = %v, want negative", got)
	}
	if got := AvgRemainingLifetime(&Entry{}, 0); got != 0 {
		t.Errorf("no-target RL = %v, want 0", got)
	}
}

func TestMaxSuccessAndViable(t *testing.T) {
	p := DefaultParams()
	fresh := entry(0, target(30*vtime.Second, 1, 2))
	if !Viable(fresh, 0, p) {
		t.Error("fresh entry should be viable")
	}
	if RefMaxSuccess(fresh, 0, p.PD) < 0.99 || Hopeless(fresh, 0, p) {
		t.Error("fresh entry should be near-certain")
	}

	expired := entry(0, target(1*vtime.Second, 1, 2))
	if Viable(expired, 2*vtime.Second, p) {
		t.Error("expired entry should not be viable")
	}

	// Hopeless but not expired: deadline in 1.2s, but residual needs
	// ~7s (2 hops × 70 ms/KB × 50 KB).
	hopeless := entry(0, target(1200, 1, 2))
	if Viable(hopeless, 0, p) || !Hopeless(hopeless, 0, p) {
		t.Error("hopeless entry should fail ε-detection")
	}
	// Same entry with ε disabled is viable (not expired yet).
	if !Viable(hopeless, 0, Params{PD: 2}) {
		t.Error("with ε=0 only expiry matters")
	}

	if Viable(&Entry{}, 0, p) {
		t.Error("entry with no targets is never viable")
	}
}

func TestViableEpsilonBoundary(t *testing.T) {
	p := Params{PD: 2, Epsilon: 0.0005}
	// Construct a target whose success is just above/below ε by tuning
	// the deadline around z = Φ⁻¹(ε) ≈ -3.29.
	z := stats.StdNormalQuantile(p.Epsilon)
	mean, sigma, size := 70.0, 20.0, 50.0
	xAt := mean + z*sigma                    // per-KB budget hitting ε exactly
	deadlineAt := vtime.Millis(xAt*size) + 2 // slack = deadline - 0 - 1·PD
	above := entry(0, Target{Deadline: deadlineAt + 50, Price: 1, Hops: 1,
		Rate: stats.Normal{Mean: mean, Sigma: sigma}})
	below := entry(0, Target{Deadline: deadlineAt - 50, Price: 1, Hops: 1,
		Rate: stats.Normal{Mean: mean, Sigma: sigma}})
	if !Viable(above, 0, p) {
		t.Error("entry just above ε should be viable")
	}
	if Viable(below, 0, p) {
		t.Error("entry just below ε should be pruned")
	}
}

func TestTargetExpired(t *testing.T) {
	tg := target(1000, 1, 1)
	if tg.Expired(1000) {
		t.Error("not expired exactly at deadline")
	}
	if !tg.Expired(1000.5) {
		t.Error("expired just after deadline")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.PD != 2 || p.Epsilon != 0.0005 {
		t.Errorf("defaults = %+v, want PD=2ms ε=0.0005", p)
	}
}
