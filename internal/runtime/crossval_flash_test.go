package runtime_test

import (
	"math"
	"testing"

	"bdps/internal/livenet"
	"bdps/internal/metrics"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// TestCrossValFlashCrowdAdmission replays one flash-crowd plan with
// admission control on both backends. The admission sweep runs at plan
// time, so the whole SLO ledger — admitted, relaxed, rejected, and the
// thinned subscribe burst — is a pure function of the plan and must
// agree exactly; the delivery-side story (rate and per-bucket timeline)
// must stay within the usual statistical band.
func TestCrossValFlashCrowdAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster runs")
	}
	mk := func() runtime.Config {
		cfg := crossValConfig(t)
		cfg.Workload.FlashCrowd = workload.FlashCrowd{
			At:       30 * vtime.Second,
			Width:    30 * vtime.Second,
			Boost:    6,
			SubBurst: 4,
		}
		cfg.Admission = runtime.Admission{Enabled: true, MaxQueue: 8}
		cfg.TimelineBucket = 30 * vtime.Second
		return cfg
	}
	sim, err := runtime.Run(mk(), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.PubsRejected == 0 {
		t.Fatal("flash crowd should drive rejections on the crossval plan")
	}

	// The live run keeps the subtest name it had when the ingress worker
	// count was a parameter; the count is gone.
	t.Run("liveShards=4", func(t *testing.T) {
		live, err := runtime.Run(mk(), livenet.Transport{})
		if err != nil {
			t.Fatal(err)
		}
		// The admission ledger is decided before either backend runs:
		// exact agreement, not statistical.
		sameCounters(t, sim, live, metrics.Published, metrics.TotalTargets,
			metrics.PubsAdmitted, metrics.PubsRelaxed, metrics.PubsRejected, metrics.SubsRejected)
		if live.ValidDeliveries == 0 {
			t.Fatal("live flash-crowd run delivered nothing")
		}
		if ratio := float64(live.Receptions) / float64(sim.Receptions); ratio < 0.7 || ratio > 1.3 {
			t.Errorf("receptions diverged: sim %d, live %d", sim.Receptions, live.Receptions)
		}
		if d := math.Abs(sim.DeliveryRate() - live.DeliveryRate()); d > 0.15 {
			t.Errorf("delivery rates diverged by %.3f: sim %.3f, live %.3f",
				d, sim.DeliveryRate(), live.DeliveryRate())
		}
		if len(sim.Timeline) == 0 || len(live.Timeline) == 0 {
			t.Fatalf("timelines missing: sim %d buckets, live %d", len(sim.Timeline), len(live.Timeline))
		}
		n := len(sim.Timeline)
		if len(live.Timeline) < n {
			n = len(live.Timeline)
		}
		for i := 0; i < n; i++ {
			if d := math.Abs(sim.Timeline[i].Rate() - live.Timeline[i].Rate()); d > 0.15 {
				t.Errorf("timeline bucket %d diverged by %.3f: sim %.3f, live %.3f",
					i, d, sim.Timeline[i].Rate(), live.Timeline[i].Rate())
			}
		}
	})
}
