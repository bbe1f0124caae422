package simnet

import (
	"testing"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// quickCfg is a scaled-down paper setup: same topology, 10-minute window.
// run executes one configuration on the simulator.
func run(cfg runtime.Config) (metrics.Result, error) {
	return runtime.Run(cfg, Transport{})
}

func quickCfg(scenario msg.Scenario, strat core.Strategy, rate float64) runtime.Config {
	return runtime.Config{
		Seed:     1,
		Scenario: scenario,
		Strategy: strat,
		Workload: workload.Config{
			RatePerMin: rate,
			Duration:   10 * vtime.Minute,
		},
	}
}

func TestRunCompletesAndDelivers(t *testing.T) {
	r, err := run(quickCfg(msg.PSD, core.MaxEB{}, 6))
	if err != nil {
		t.Fatal(err)
	}
	if r.Published == 0 {
		t.Fatal("nothing published")
	}
	if r.ValidDeliveries == 0 {
		t.Fatal("nothing delivered")
	}
	if r.Receptions <= r.Published {
		t.Error("messages should traverse multiple brokers")
	}
	if rate := r.DeliveryRate(); rate <= 0 || rate > 1 {
		t.Errorf("delivery rate = %v", rate)
	}
	if r.LatencyMeanMs <= 0 {
		t.Error("valid deliveries must have positive latency")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := run(quickCfg(msg.SSD, core.MaxEB{}, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(quickCfg(msg.SSD, core.MaxEB{}, 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Receptions != b.Receptions || a.ValidDeliveries != b.ValidDeliveries ||
		a.Earning != b.Earning || a.DropsExpired != b.DropsExpired ||
		a.DropsHopeless != b.DropsHopeless {
		t.Errorf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, _ := run(quickCfg(msg.SSD, core.MaxEB{}, 6))
	cfg := quickCfg(msg.SSD, core.MaxEB{}, 6)
	cfg.Seed = 2
	b, _ := run(cfg)
	if a.Receptions == b.Receptions && a.Earning == b.Earning &&
		a.ValidDeliveries == b.ValidDeliveries {
		t.Error("different seeds should differ somewhere")
	}
}

func TestRunLatencyRespectsPhysics(t *testing.T) {
	// Minimum possible end-to-end latency: 4 brokers × 2 ms PD plus
	// 3 links × 50 KB × ≥1 ms/KB... but with realistic rates ≥ 50·30
	// ms/link. Valid deliveries can't beat 2 ms (single-broker local) —
	// here all subscribers sit 3 links deep, so check a loose bound.
	r, err := run(quickCfg(msg.PSD, core.MaxEB{}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.LatencyP50Ms < 3*50*1+4*2 {
		t.Errorf("median latency %v ms is below the physical floor", r.LatencyP50Ms)
	}
	// And deliveries marked valid are within the largest PSD bound.
	if r.LatencyMaxMs > float64(30*vtime.Second) {
		t.Errorf("valid delivery with latency %v beyond max PSD bound", r.LatencyMaxMs)
	}
}

func TestRunFIFOWithoutEpsilonHasNoHopelessDrops(t *testing.T) {
	cfg := quickCfg(msg.PSD, core.FIFO{}, 6)
	cfg.Params = core.Params{PD: 2, Epsilon: 0} // traditional strategy: expiry only
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DropsHopeless != 0 {
		t.Errorf("ε off but %d hopeless drops", r.DropsHopeless)
	}
}

func TestRunCongestionDegradesDelivery(t *testing.T) {
	lo, err := run(quickCfg(msg.PSD, core.MaxEB{}, 2))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := run(quickCfg(msg.PSD, core.MaxEB{}, 15))
	if err != nil {
		t.Fatal(err)
	}
	if hi.DeliveryRate() >= lo.DeliveryRate() {
		t.Errorf("delivery rate should fall with load: lo=%.3f hi=%.3f",
			lo.DeliveryRate(), hi.DeliveryRate())
	}
}

func TestRunEBOutperformsBaselinesUnderLoad(t *testing.T) {
	// The headline qualitative claim at a congested rate, small scale.
	run := func(s core.Strategy, eps float64) float64 {
		cfg := quickCfg(msg.PSD, s, 12)
		cfg.Params = core.Params{PD: 2, Epsilon: eps}
		r, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.DeliveryRate()
	}
	eb := run(core.MaxEB{}, core.DefaultEpsilon)
	fifo := run(core.FIFO{}, 0)
	rl := run(core.RL{}, 0)
	if eb <= fifo {
		t.Errorf("EB (%.3f) should beat FIFO (%.3f) under load", eb, fifo)
	}
	if eb <= rl {
		t.Errorf("EB (%.3f) should beat RL (%.3f) under load", eb, rl)
	}
}

func TestRunWithPrebuiltOverlay(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(msg.SSD, core.MaxEB{}, 3)
	cfg.Overlay = ov
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ValidDeliveries == 0 {
		t.Error("prebuilt overlay run delivered nothing")
	}
}

func TestRunMultipathDeliversWithDedup(t *testing.T) {
	cfg := quickCfg(msg.SSD, core.MaxEB{}, 3)
	cfg.Multipath = 2
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := run(quickCfg(msg.SSD, core.MaxEB{}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.ValidDeliveries == 0 {
		t.Fatal("multipath delivered nothing")
	}
	if r.Receptions <= single.Receptions {
		t.Errorf("multipath should cost more traffic: %d vs %d",
			r.Receptions, single.Receptions)
	}
	// Dedup must prevent duplicate deliveries: valid+late per (msg,sub)
	// pair at most once means valid deliveries cannot exceed Σtsᵢ.
	if r.ValidDeliveries > r.TotalTargets {
		t.Errorf("deliveries (%d) exceed targets (%d): dedup broken",
			r.ValidDeliveries, r.TotalTargets)
	}
}

// TestRunMultipathCountsDuplicates pins the simulator's half of the
// Duplicates row: every multipath copy a broker's dedup suppresses is
// counted, as a live broker counts it, the same number on every run of
// a seed; a single-path run has no copies to suppress.
func TestRunMultipathCountsDuplicates(t *testing.T) {
	multi := func() metrics.Result {
		cfg := quickCfg(msg.PSD, core.MaxEB{}, 6)
		cfg.Multipath = 2
		r, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := multi(), multi()
	if a.Duplicates == 0 {
		t.Fatal("multipath run suppressed copies but counted no duplicates")
	}
	if a.Duplicates != b.Duplicates {
		t.Errorf("duplicates differ across runs of one seed: %d vs %d", a.Duplicates, b.Duplicates)
	}
	single, err := run(quickCfg(msg.PSD, core.MaxEB{}, 6))
	if err != nil {
		t.Fatal(err)
	}
	if single.Duplicates != 0 {
		t.Errorf("single-path run counted %d duplicates, want 0", single.Duplicates)
	}
}

func TestRunMeasuredRatesClose(t *testing.T) {
	exact, err := run(quickCfg(msg.SSD, core.MaxEB{}, 6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(msg.SSD, core.MaxEB{}, 6)
	cfg.MeasureSamples = 200
	measured, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if measured.ValidDeliveries == 0 {
		t.Fatal("measured-rates run delivered nothing")
	}
	// With 200 samples the estimates are tight; earnings within 20%.
	ratio := measured.Earning / exact.Earning
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("measured/exact earning ratio = %.2f, want ≈1", ratio)
	}
}

func TestRunLinkModels(t *testing.T) {
	for _, model := range []runtime.LinkModel{runtime.LinkNormal, runtime.LinkFixed, runtime.LinkGamma} {
		cfg := quickCfg(msg.PSD, core.MaxEB{}, 3)
		cfg.LinkModel = model
		r, err := run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if r.ValidDeliveries == 0 {
			t.Errorf("%v: nothing delivered", model)
		}
	}
}

func TestLinkModelString(t *testing.T) {
	if runtime.LinkNormal.String() != "normal" || runtime.LinkFixed.String() != "fixed" ||
		runtime.LinkGamma.String() != "gamma" {
		t.Error("LinkModel strings wrong")
	}
	if runtime.LinkModel(9).String() == "" {
		t.Error("unknown model should still render")
	}
}

func TestNetworkExposesSubscriptions(t *testing.T) {
	p, err := runtime.NewPlan(quickCfg(msg.SSD, core.MaxEB{}, 3))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Transport{}.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	n := dep.(*Network)
	if len(n.Subscriptions()) != 160 {
		t.Errorf("subs = %d, want 160 (paper population)", len(n.Subscriptions()))
	}
}
