package runtime_test

import (
	"math"
	"testing"

	"bdps/internal/core"
	"bdps/internal/livenet"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// restartConfig is the shared crash-restart run. It reuses the chain
// overlay (0,1 → 2 → 3 → 4,5) where broker 2 is a cut vertex: crashing
// it severs every delivery path with nothing to reroute through, so the
// run's fate rests entirely on the restart — exactly the regime where
// durable state matters. The knobs pin the recovery ledger to plan-pure
// decisions on both backends:
//
//   - FixedInterval puts publications on a strict 10 s grid, and the
//     small 4 KB payload delivers in well under a second — so every
//     fault instant below sits ≥ 4 emulated seconds from any
//     publication or delivery, and "which deliveries fall inside the
//     session-down window" is a function of the plan, not of wall-clock
//     jitter.
//   - The generous 2–3 min publisher bounds keep every delivery and
//     every session replay inside its bound, so DroppedDeadline is
//     exactly zero on both backends (asserted: 0 == 0 by proof).
//   - NoRetry removes the retry attempts and nothing else (no LinkLoss
//     fault is armed, so there is nothing to retry): a frame sent toward
//     the dead incarnation is lost, on both backends, the moment it is
//     written — no link keeps a copy to re-send after the reconnect.
func restartConfig(t testing.TB) runtime.Config {
	return runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Overlay:  crossValOverlay(t),
		Workload: workload.Config{
			RatePerMin:    6,
			Duration:      2 * vtime.Minute,
			FixedInterval: true,
			SizeKB:        4,
			PSDDelayLo:    2 * vtime.Minute,
			PSDDelayHi:    3 * vtime.Minute,
		},
		Recovery: runtime.Recovery{
			Detect:            true,
			Renegotiate:       true,
			HeartbeatInterval: vtime.Second,
			HeartbeatTimeout:  6 * vtime.Second,
		},
		Reliability:    runtime.Reliability{NoRetry: true},
		TimelineBucket: 30 * vtime.Second,
		TimeScale:      0.005,
	}
}

// restartFaults is the crash–restart–resume storyline: broker 2 dies at
// 35 s, comes back from its log at 65 s, and one subscriber's session
// drops across [75 s, 105 s) — so the session outage happens entirely on
// the rejoined incarnation. All instants sit mid-gap on the 10 s
// publication grid.
func restartFaults() []runtime.Fault {
	return []runtime.Fault{
		runtime.BrokerCrash{ID: 2, At: 35 * vtime.Second},
		runtime.BrokerRestart{ID: 2, At: 65 * vtime.Second},
		// Subscription 3's filter matches four of the six publications on
		// the grid inside the window, so the replay is non-trivial.
		runtime.SessionDown{Sub: 3, Start: 75 * vtime.Second, End: 105 * vtime.Second},
	}
}

// TestSimRestartRecoversDelivery is the ablation half of the tentpole
// proof (A12): with broker 2 crashed and never restarted, every delivery
// path is severed and repair has nothing to reroute through — delivery
// collapses to zero for the rest of the run. The same crash followed by
// a warm restart from durable state brings the final timeline bucket
// back to the fault-free baseline.
func TestSimRestartRecoversDelivery(t *testing.T) {
	quiet, err := runtime.Run(restartConfig(t), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}

	downCfg := restartConfig(t)
	downCfg.Faults = restartFaults()[:1] // crash only: no restart, no resume
	down, err := runtime.Run(downCfg, simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}

	recCfg := restartConfig(t)
	recCfg.Faults = restartFaults()
	rec, err := runtime.Run(recCfg, simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}

	// The crash-only run can detect but not heal: broker 2 is the only
	// route, so repair rejects every path and nothing published after the
	// crash ever delivers.
	if down.RestartReplayedSubs != 0 || down.SessionsResumed != 0 {
		t.Errorf("crash-only run recovered state: %d replayed subs, %d resumed sessions",
			down.RestartReplayedSubs, down.SessionsResumed)
	}
	for _, i := range []int{2, 3} { // buckets [60 s, 90 s) and [90 s, 120 s)
		if r := down.Timeline[i].Rate(); r != 0 {
			t.Errorf("bucket %d: crash-only delivery = %.3f, want 0 (cut vertex down)", i, r)
		}
	}

	// The restart reinstalls broker 2's routing from its log: one entry
	// set per subscription, every subscription routed through the cut
	// vertex — all of them.
	subs := 2 * 10 // two edges × the workload default SubsPerEdge
	if rec.RestartReplayedSubs != subs {
		t.Errorf("replayed subs = %d, want %d (every sub routes through broker 2)",
			rec.RestartReplayedSubs, subs)
	}
	if rec.SessionsResumed != 1 {
		t.Errorf("sessions resumed = %d, want 1", rec.SessionsResumed)
	}
	if rec.ReplayedMsgs == 0 {
		t.Error("resume replayed nothing despite deliveries during the session outage")
	}
	// Generous bounds: nothing dies of lateness, at delivery or at replay.
	if rec.DroppedDeadline != 0 {
		t.Errorf("dropped on deadline = %d, want 0 under 2–3 min bounds", rec.DroppedDeadline)
	}
	// Broker 2 was silent for the whole crash window, so no frame of the
	// dead incarnation is in flight at the restart.
	if rec.StaleEpochFrames != 0 {
		t.Errorf("stale-epoch frames = %d, want 0 (dead incarnation drained)", rec.StaleEpochFrames)
	}
	if rec.ValidDeliveries <= down.ValidDeliveries {
		t.Errorf("restart should recover deliveries: %d with vs %d without",
			rec.ValidDeliveries, down.ValidDeliveries)
	}

	// Everything published after the rejoin settles delivers on the
	// reinstalled routes: the final full bucket returns to baseline.
	if len(rec.Timeline) != len(quiet.Timeline) {
		t.Fatalf("timeline lengths diverged: quiet %d, rec %d", len(quiet.Timeline), len(rec.Timeline))
	}
	q, r := quiet.Timeline[3].Rate(), rec.Timeline[3].Rate()
	if diff := math.Abs(r - q); diff > 0.15 {
		t.Errorf("bucket 3: restarted rate %.3f vs quiet %.3f (|Δ| = %.3f > 0.15)", r, q, diff)
	}
}

// TestRestartResumeCrossValidation pins the recovery ledger across
// backends: the same crash–restart–resume plan on the simulator and on
// the live TCP overlay (real WAL files, real re-dial and epoch
// handshake, real replay rings) must agree EXACTLY on what was recovered
// — subscriptions reinstalled from the log, sessions resumed, messages
// replayed, deadline drops and stale-epoch rejections — and land in the
// same delivery band.
func TestRestartResumeCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	quietCfg := restartConfig(t)
	quiet, err := runtime.Run(quietCfg, simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}

	simCfg := restartConfig(t)
	simCfg.Overlay = quietCfg.Overlay
	simCfg.Faults = restartFaults()
	sim, err := runtime.Run(simCfg, simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}

	liveCfg := restartConfig(t)
	liveCfg.Overlay = quietCfg.Overlay
	liveCfg.Faults = restartFaults()
	liveCfg.TimeScale = liveRecoveryTimeScale
	live, err := runtime.Run(liveCfg, livenet.Transport{})
	if err != nil {
		t.Fatal(err)
	}

	// The recovery ledger is a deterministic function of the plan on both
	// backends: exact equality, not bands. Detection and repair walk the
	// same plan state (the crash is seen as broker 2's outgoing arcs, the
	// restart as one warm rejoin), and the workload is one workload.
	sameCounters(t, sim, live,
		metrics.RestartReplayedSubs, metrics.SessionsResumed, metrics.ReplayedMsgs,
		metrics.DroppedDeadline, metrics.StaleEpochFrames,
		metrics.Detections, metrics.ReroutedPaths, metrics.RefloodedSubs,
		metrics.Published, metrics.TotalTargets)
	if sim.RestartReplayedSubs != 2*10 {
		t.Errorf("replayed subs = %d, want 20 (every sub in broker 2's log)", sim.RestartReplayedSubs)
	}
	if sim.SessionsResumed != 1 {
		t.Errorf("sessions resumed = %d, want 1", sim.SessionsResumed)
	}
	if sim.ReplayedMsgs == 0 {
		t.Error("resume replayed nothing despite deliveries during the session outage")
	}
	if sim.DroppedDeadline != 0 || sim.StaleEpochFrames != 0 {
		t.Errorf("deadline drops %d, stale-epoch frames %d: the proof wants 0 of each",
			sim.DroppedDeadline, sim.StaleEpochFrames)
	}

	// The delivery band.
	if d := math.Abs(sim.DeliveryRate() - live.DeliveryRate()); d > 0.15 {
		t.Errorf("delivery rates diverged by %.3f: sim %.3f, live %.3f",
			d, sim.DeliveryRate(), live.DeliveryRate())
	}

	// Post-rejoin delivery returns to the quiet baseline on BOTH backends.
	if len(live.Timeline) != len(quiet.Timeline) {
		t.Fatalf("timeline lengths diverged: quiet %d, live %d", len(quiet.Timeline), len(live.Timeline))
	}
	if quiet.Timeline[3].Targets != live.Timeline[3].Targets {
		t.Errorf("bucket 3 targets diverged: quiet %d, live %d",
			quiet.Timeline[3].Targets, live.Timeline[3].Targets)
	}
	q := quiet.Timeline[3].Rate()
	for name, r := range map[string]float64{
		"sim": sim.Timeline[3].Rate(), "live": live.Timeline[3].Rate(),
	} {
		if diff := math.Abs(r - q); diff > 0.15 {
			t.Errorf("bucket 3: %s restarted rate %.3f vs quiet %.3f (|Δ| = %.3f > 0.15)",
				name, r, q, diff)
		}
	}
}

// TestLiveLedgerSumsIncarnations: on a live crash–restart run each node
// counts into a ledger of its own, and the plan's collector ends with
// exactly their sum — the retired incarnation of broker 2 included.
// Every counter row a node counts must match; the rows the run driver
// and the failure detector write go to the plan's collector directly.
func TestLiveLedgerSumsIncarnations(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	cfg := restartConfig(t)
	cfg.Faults = restartFaults()
	cfg.TimeScale = liveRecoveryTimeScale
	p, err := runtime.NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := livenet.Transport{}.Deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	p.AccountPublications()
	if err := dep.Inject(p.Pubs); err != nil {
		t.Fatal(err)
	}
	if err := dep.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}
	got := p.Metrics.Result()

	ledgers := dep.(interface{ Cluster() *livenet.Cluster }).Cluster().Ledgers()
	if len(ledgers) != len(p.Brokers)+1 {
		t.Fatalf("%d ledgers, want one per broker plus broker 2's retired incarnation", len(ledgers))
	}
	var sum metrics.Ledger
	for _, l := range ledgers {
		row := l.Ledger()
		for _, info := range metrics.Counters {
			*info.Field(&sum) += *info.Field(&row)
		}
	}
	// Ledgers lists the retired incarnations first.
	if retired := ledgers[0].Ledger(); retired.Receptions == 0 || retired.RestartReplayedSubs != 0 {
		t.Errorf("first ledger is not broker 2's dead incarnation: %d receptions, %d replayed subs",
			retired.Receptions, retired.RestartReplayedSubs)
	}
	if sum.Receptions == 0 || sum.ValidDeliveries == 0 || sum.RestartReplayedSubs == 0 || sum.SessionsResumed == 0 {
		t.Errorf("the run exercised too little: %+v", sum)
	}
	direct := map[metrics.Counter]bool{
		metrics.Published: true, metrics.TotalTargets: true,
		metrics.Detections: true, metrics.ReroutedPaths: true, metrics.RefloodedSubs: true,
		metrics.BoundsKept: true, metrics.BoundsRelaxed: true, metrics.BoundsRejected: true,
		metrics.PubsAdmitted: true, metrics.PubsRelaxed: true, metrics.PubsRejected: true,
		metrics.SubsRejected: true, metrics.AggregatedEntries: true,
	}
	for id, info := range metrics.Counters {
		nodes, plan := *info.Field(&sum), *info.Field(&got.Ledger)
		switch {
		case direct[metrics.Counter(id)] && nodes != 0:
			t.Errorf("%s: the nodes counted %d of a row only the driver and detector write", info.Name, nodes)
		case !direct[metrics.Counter(id)] && nodes != plan:
			t.Errorf("%s: plan collector %d, sum over the incarnations %d", info.Name, plan, nodes)
		}
	}

	// The nodes' ledgers have the plan's timeline: every valid delivery
	// lands in a bucket.
	valid := 0
	for _, b := range got.Timeline {
		valid += b.Valid
	}
	if valid != got.ValidDeliveries {
		t.Errorf("timeline holds %d valid deliveries, the counter %d", valid, got.ValidDeliveries)
	}
	if got.LatencyMeanMs <= 0 || got.LatencyMaxMs < got.LatencyP95Ms {
		t.Errorf("latencies not merged: mean %v, p95 %v, max %v", got.LatencyMeanMs, got.LatencyP95Ms, got.LatencyMaxMs)
	}
}

// TestChurnRestartCrossValidation pins the simulator's modeled WAL to
// the live node's real one under churn: both log the deployed table and
// then every subscription the broker admits or retracts while it is up,
// so the incarnation reborn after the crash replays the same
// subscriptions on both — the static population plus the churn
// subscriptions the log held at the crash, including those whose
// unsubscribe flooded while it was down. No churn event falls within
// 3 emulated seconds of the crash (60 ms of wall time live), so the
// live churn driver's scheduling jitter cannot move one across it.
func TestChurnRestartCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	mk := func() runtime.Config {
		cfg := restartConfig(t)
		cfg.Workload.Churn = workload.Churn{RatePerMin: 16, HalfLife: 30 * vtime.Second}
		cfg.Faults = restartFaults()[:2] // crash at 35 s, warm restart at 65 s
		return cfg
	}
	p, err := runtime.NewPlan(mk())
	if err != nil {
		t.Fatal(err)
	}
	crash := restartFaults()[0].(runtime.BrokerCrash).At
	for _, ev := range p.SubEvents {
		if math.Abs(ev.At-crash) < 3*vtime.Second {
			t.Fatalf("churn event at %v is within 3 s of the crash at %v", ev.At, crash)
		}
	}

	sim, err := runtime.Run(mk(), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	liveCfg := mk()
	liveCfg.TimeScale = liveRecoveryTimeScale
	live, err := runtime.Run(liveCfg, livenet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	sameCounters(t, sim, live, metrics.RestartReplayedSubs)
	if sim.RestartReplayedSubs <= 2*10 {
		t.Errorf("replayed subs = %d: the log holds no churn admission beyond the 20 deployed", sim.RestartReplayedSubs)
	}
}
