package runtime_test

import (
	"testing"

	"bdps/internal/core"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

func churnCfg(rate float64) runtime.Config {
	return runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Workload: workload.Config{
			RatePerMin: 10,
			Duration:   10 * vtime.Minute,
			Churn:      workload.Churn{RatePerMin: rate, HalfLife: vtime.Minute},
		},
	}
}

// TestSimChurnRun drives a churning population through the simulator:
// the run must complete, deliver sanely against the publish-time active
// population, and be bit-reproducible (the property the experiment run
// cache depends on).
func TestSimChurnRun(t *testing.T) {
	static, err := runtime.Run(churnCfg(0), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	churned, err := runtime.Run(churnCfg(60), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if churned.ValidDeliveries == 0 {
		t.Fatal("churn run delivered nothing")
	}
	if churned.DeliveryRate() < 0 || churned.DeliveryRate() > 1 {
		t.Fatalf("delivery rate %v outside [0,1]", churned.DeliveryRate())
	}
	// 60 arrivals/min with a 1 min half-life adds ~87 concurrent churn
	// subscribers on top of the 160 static ones: targets must grow.
	if churned.TotalTargets <= static.TotalTargets {
		t.Fatalf("churn did not grow the target population: %d vs %d",
			churned.TotalTargets, static.TotalTargets)
	}
	again, err := runtime.Run(churnCfg(60), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if churned.ValidDeliveries != again.ValidDeliveries ||
		churned.Receptions != again.Receptions ||
		churned.TotalTargets != again.TotalTargets {
		t.Fatalf("churn run is not deterministic: %+v vs %+v", churned, again)
	}
}

// TestLiveChurnRun plays a churning plan on the live TCP backend: churn
// timers flood subscribe/unsubscribe through the overlay while the
// publication schedule runs. The run must quiesce and deliver.
func TestLiveChurnRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	cfg := crossValConfig(t)
	cfg.Workload.Churn = workload.Churn{RatePerMin: 60, HalfLife: 30 * vtime.Second}
	res, err := runtime.Run(cfg, livenet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidDeliveries == 0 {
		t.Fatal("live churn run delivered nothing")
	}
	if res.DeliveryRate() < 0.2 {
		t.Fatalf("live churn delivery rate %.2f suspiciously low", res.DeliveryRate())
	}
}

// TestPlanChurnSchedule checks the plan surfaces the churn schedule and
// keeps churn ids clear of the static population.
func TestPlanChurnSchedule(t *testing.T) {
	p, err := runtime.NewPlan(churnCfg(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.SubEvents) == 0 {
		t.Fatal("plan has no churn events")
	}
	maxStatic := msg.SubID(0)
	for _, s := range p.Subs {
		if s.ID > maxStatic {
			maxStatic = s.ID
		}
	}
	for _, ev := range p.SubEvents {
		if ev.Sub.ID <= maxStatic {
			t.Fatalf("churn id %d collides with static population (max %d)", ev.Sub.ID, maxStatic)
		}
	}
	static, err := runtime.NewPlan(churnCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(static.SubEvents) != 0 {
		t.Fatal("static plan has churn events")
	}
}

// TestLiveChurnAcrossRestart composes the two drivers that touch the
// cluster's node set from their own goroutines: the churn schedule, which
// looks its edge broker up per event, and a BrokerRestart, which swaps a
// reborn incarnation in mid-run. Its assertion is the race detector's
// (CI runs it under -race): the lookup must go through the cluster lock.
// Beyond that the run must quiesce, rejoin from the log and deliver.
func TestLiveChurnAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	cfg := restartConfig(t)
	cfg.Workload.Churn = workload.Churn{RatePerMin: 120, HalfLife: 20 * vtime.Second}
	cfg.Faults = restartFaults()[:2] // crash at 35 s, warm restart at 65 s
	cfg.TimeScale = liveRecoveryTimeScale
	res, err := runtime.Run(cfg, livenet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RestartReplayedSubs == 0 {
		t.Error("the restarted broker replayed nothing from its log")
	}
	if res.ValidDeliveries == 0 {
		t.Fatal("churn + restart run delivered nothing")
	}
}
