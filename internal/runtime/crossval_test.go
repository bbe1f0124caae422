package runtime_test

import (
	"fmt"
	"math"
	"testing"

	"bdps/internal/core"
	"bdps/internal/livenet"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// crossValOverlay is a small two-ingress, two-edge overlay: short paths
// keep the wall-clock overhead of the compressed live run small relative
// to the emulated link times, so sim and live land in the same band.
//
//	0 ─┐          ┌─ 4
//	   ├─ 2 ── 3 ─┤
//	1 ─┘          └─ 5
func crossValOverlay(t testing.TB) *topology.Overlay {
	t.Helper()
	g := topology.NewGraph(6)
	for _, l := range []struct {
		a, b msg.NodeID
		mean float64
	}{{0, 2, 50}, {1, 2, 55}, {2, 3, 45}, {3, 4, 50}, {3, 5, 60}} {
		if err := g.AddLink(l.a, l.b, stats.Normal{Mean: l.mean, Sigma: 5}); err != nil {
			t.Fatal(err)
		}
	}
	return &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0, 1},
		Edges:   []msg.NodeID{4, 5},
	}
}

func crossValConfig(t testing.TB) runtime.Config {
	return runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Overlay:  crossValOverlay(t),
		Workload: workload.Config{RatePerMin: 6, Duration: 2 * vtime.Minute},
		// 1 emulated second per 5 wall ms: the 2-minute window plays out
		// in ~600 ms, with per-hop wall overheads two orders of magnitude
		// below the ~2.5 s emulated link times.
		TimeScale: 0.005,
	}
}

// TestCrossValidationSimVsLive is the unified layer's headline check:
// one runtime.Config, deployed through one runtime.Plan, must produce
// statistically matching results on the discrete-event simulator and
// the live TCP overlay.
func TestCrossValidationSimVsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	cfg := crossValConfig(t)

	sim, err := runtime.Run(cfg, simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Backend != "sim" {
		t.Errorf("backend = %q, want sim", sim.Backend)
	}

	// The live run keeps the subtest name it had when the ingress worker
	// count was a parameter; the count is gone.
	t.Run("liveShards=4", func(t *testing.T) {
		lcfg := crossValConfig(t)
		lcfg.Overlay = cfg.Overlay // plans may share an overlay across runs
		live, err := runtime.Run(lcfg, livenet.Transport{})
		if err != nil {
			t.Fatal(err)
		}

		if live.Backend != "live" {
			t.Errorf("backend = %q, want live", live.Backend)
		}
		if sim.Published != live.Published {
			t.Errorf("published diverged: sim %d, live %d (same plan must inject the same workload)",
				sim.Published, live.Published)
		}
		if sim.TotalTargets != live.TotalTargets {
			t.Errorf("targets diverged: sim %d, live %d", sim.TotalTargets, live.TotalTargets)
		}
		if live.ValidDeliveries == 0 {
			t.Fatal("live run delivered nothing")
		}

		// Delivery rates must agree within a tolerance band: the live
		// run pays real scheduling and TCP overheads (inflated by the
		// time compression), so it may lag the simulator slightly,
		// never match it bit for bit.
		simRate, liveRate := sim.DeliveryRate(), live.DeliveryRate()
		if d := math.Abs(simRate - liveRate); d > 0.15 {
			t.Errorf("delivery rates diverged by %.3f: sim %.3f, live %.3f", d, simRate, liveRate)
		}
		// Routing is identical (same plan tables), so traffic volumes
		// agree up to early drops.
		rr := float64(live.Receptions) / float64(sim.Receptions)
		if rr < 0.7 || rr > 1.3 {
			t.Errorf("receptions diverged: sim %d, live %d (ratio %.2f)",
				sim.Receptions, live.Receptions, rr)
		}
	})
}

// TestCrossValidationLossExact is the lossy-network headline check: under
// a seeded per-arc loss/dup adversary, the simulator and the live overlay
// must agree EXACTLY — not statistically — on the reliable-channel
// counters. Both backends resolve every transmission chain from the same
// per-(link, seq, attempt) hash of the run seed, so FramesLost,
// Retransmits, DupsSuppressed and DroppedDeadline are deterministic
// functions of the plan, independent of wall-clock jitter.
//
// Preconditions for exactness: BlindRetry removes the wall-clock
// dependence of the deadline-aware admission gate, and the generous
// default bounds keep DroppedDeadline at zero on both backends (asserted,
// so the equality is 0 == 0 by proof rather than accident). Reorder stays
// 0 here: swap decisions depend on queue adjacency, which wall-clock
// scheduling perturbs — ReorderedHealed is validated statistically in the
// livenet soak instead.
func TestCrossValidationLossExact(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	for _, rate := range []float64{0.05, 0.10, 0.20} {
		t.Run(fmt.Sprintf("loss=%.2f", rate), func(t *testing.T) {
			mk := func() runtime.Config {
				cfg := crossValConfig(t)
				cfg.Faults = []runtime.Fault{runtime.LinkLoss{
					From: msg.None, To: msg.None,
					Rate: rate, Dup: 0.05,
				}}
				cfg.Reliability = runtime.Reliability{BlindRetry: true}
				cfg.TimelineBucket = 30 * vtime.Second
				// Generous bounds: a message dropped as hopeless mid-path
				// sends nothing downstream, which would shift every later
				// seq on that link — and live pays overheads sim does not.
				// Exactness needs the same frame set on every link, so no
				// message may die of lateness on either backend.
				cfg.Workload.PSDDelayLo = 2 * vtime.Minute
				cfg.Workload.PSDDelayHi = 3 * vtime.Minute
				return cfg
			}
			sim, err := runtime.Run(mk(), simnet.Transport{})
			if err != nil {
				t.Fatal(err)
			}
			if sim.FramesLost == 0 {
				t.Fatalf("adversary at rate %.2f lost nothing in sim", rate)
			}
			// Blind retry never abandons a frame, so every loss is retried.
			if sim.Retransmits != sim.FramesLost {
				t.Errorf("sim retransmits %d != losses %d under blind retry",
					sim.Retransmits, sim.FramesLost)
			}
			if sim.DroppedDeadline != 0 {
				t.Errorf("sim dropped %d frames on deadline under blind retry", sim.DroppedDeadline)
			}

			// The live run at the default configuration, under the subtest name
			// it had when the ingress worker count was a parameter.
			t.Run("liveShards=0", func(t *testing.T) {
				live, err := runtime.Run(mk(), livenet.Transport{})
				if err != nil {
					t.Fatal(err)
				}
				// The exact-agreement set: counters that are pure
				// functions of (seed, link index, seq, attempt).
				sameCounters(t, sim, live, metrics.FramesLost, metrics.Retransmits,
					metrics.DupsSuppressed, metrics.DroppedDeadline)
				// Retransmission heals the loss: the delivery-side story
				// stays statistically aligned, as in the lossless check.
				if sim.Published != live.Published {
					t.Errorf("published diverged: sim %d, live %d", sim.Published, live.Published)
				}
				if live.ValidDeliveries == 0 {
					t.Fatal("live run delivered nothing under loss")
				}
				if d := math.Abs(sim.DeliveryRate() - live.DeliveryRate()); d > 0.15 {
					t.Errorf("delivery rates diverged by %.3f: sim %.3f, live %.3f",
						d, sim.DeliveryRate(), live.DeliveryRate())
				}
				// Per-bucket delivery timelines stay within the same band.
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
		})
	}
}

// TestCrossValidationCongested holds the live data path to the
// simulator where it used to part from it: under congestion. At 20
// msg/min per ingress the 2→3 trunk is offered a 50 KB transfer (≈ 2.3
// emulated s) every 1.5 s, so queues build and the scheduler decides
// who meets a 10–30 s bound. A sender that pops a burst of queued
// messages and sleeps their transfer times as one sum charges every
// message of the burst the whole sum and schedules nothing that arrives
// meanwhile — the live delivery rate then falls ≈ 0.5 below the
// simulator's; pacing transfer by transfer, the two agree. The same run
// checks the measurement side: each transfer is observed on its own, so
// the trunk's link estimate recovers the configured rate's mean and its
// spread (a per-burst mean would shrink the spread by √burst).
func TestCrossValidationCongested(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	mk := func() runtime.Config {
		cfg := crossValConfig(t)
		cfg.Workload.RatePerMin = 20
		return cfg
	}
	sim, err := runtime.Run(mk(), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if r := sim.DeliveryRate(); r < 0.2 || r > 0.9 {
		t.Fatalf("sim delivery rate %.3f: the overlay is not congested enough to test anything", r)
	}

	lcfg := mk()
	p, err := runtime.NewPlan(lcfg)
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
	live := p.Metrics.Result()

	if sim.Published != live.Published || sim.TotalTargets != live.TotalTargets {
		t.Errorf("workload diverged: sim %d/%d, live %d/%d published/targets",
			sim.Published, sim.TotalTargets, live.Published, live.TotalTargets)
	}
	if d := math.Abs(sim.DeliveryRate() - live.DeliveryRate()); d > 0.10 {
		t.Errorf("delivery rates diverged by %.3f under congestion: sim %.3f, live %.3f",
			d, sim.DeliveryRate(), live.DeliveryRate())
	}

	c := dep.(interface{ Cluster() *livenet.Cluster }).Cluster()
	est, observed := c.Node(2).LinkEstimate(3)
	t.Logf("delivery rate sim %.3f, live %.3f; trunk estimate %v against a configured N(45, 5²)", sim.DeliveryRate(), live.DeliveryRate(), est)
	if !observed {
		t.Fatal("broker 2 observed no transfer on the trunk")
	}
	// Configured N(45, 5) ms/KB. The mean carries the wall overhead of a
	// transfer (timer overshoot, encode, write) on top; the spread would
	// be ≈ 1–2 if observations were per-burst means.
	if est.Mean < 42 || est.Mean > 55 {
		t.Errorf("trunk estimate mean %.1f ms/KB, configured 45", est.Mean)
	}
	if est.Sigma < 3 || est.Sigma > 15 {
		t.Errorf("trunk estimate spread %.1f ms/KB, configured 5", est.Sigma)
	}
}

// diamondOverlay has two disjoint paths ingress→edge (0-1-3 and 0-2-3),
// so K=2 multipath routing actually fans out.
func diamondOverlay(t testing.TB) *topology.Overlay {
	t.Helper()
	g := topology.NewGraph(4)
	for _, l := range []struct {
		a, b msg.NodeID
		mean float64
	}{{0, 1, 50}, {0, 2, 55}, {1, 3, 50}, {2, 3, 55}} {
		if err := g.AddLink(l.a, l.b, stats.Normal{Mean: l.mean, Sigma: 5}); err != nil {
			t.Fatal(err)
		}
	}
	return &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0},
		Edges:   []msg.NodeID{3},
	}
}

// TestLiveMultipathViaRuntime drives the paper's multipath+dedup mode
// through the unified layer on the live backend — the mode the old live
// runtime silently ignored.
func TestLiveMultipathViaRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	single := crossValConfig(t)
	single.Overlay = diamondOverlay(t)
	multi := crossValConfig(t)
	multi.Overlay = diamondOverlay(t) // fresh overlay: plans are per-run
	multi.Multipath = 2

	base, err := runtime.Run(single, livenet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := runtime.Run(multi, livenet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if mp.ValidDeliveries == 0 {
		t.Fatal("multipath live run delivered nothing")
	}
	// K-path routing costs more traffic on the redundant segments…
	if mp.Receptions <= base.Receptions {
		t.Errorf("multipath should cost more traffic: %d vs %d receptions",
			mp.Receptions, base.Receptions)
	}
	// …but dedup caps deliveries at one per (message, subscriber).
	if mp.ValidDeliveries > mp.TotalTargets {
		t.Errorf("deliveries (%d) exceed targets (%d): live dedup broken",
			mp.ValidDeliveries, mp.TotalTargets)
	}
	// The copies the dedup discarded are on the ledger.
	if mp.Duplicates == 0 {
		t.Error("multipath live run counted no suppressed duplicates")
	}
}

// TestLiveBrokerCrashViaRuntime drives an injected broker crash through
// the unified layer on the live backend: the run must terminate (drain
// must not hang on the dead broker's unaccounted frames), charge losses
// to the crash, and lose the deliveries the severed paths would have
// made.
func TestLiveBrokerCrashViaRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("compressed-timescale live cluster run")
	}
	base := crossValConfig(t)
	crashed := crossValConfig(t)
	// Node 2 is the cut vertex: crashing it at 30 s severs every path.
	crashed.Faults = []runtime.Fault{runtime.BrokerCrash{ID: 2, At: 30 * vtime.Second}}

	healthy, err := runtime.Run(base, livenet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	broken, err := runtime.Run(crashed, livenet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if broken.DropsCrashed == 0 {
		t.Error("crash should charge losses to DropsCrashed")
	}
	if broken.ValidDeliveries == 0 {
		t.Error("messages published before the crash should still deliver")
	}
	if broken.ValidDeliveries >= healthy.ValidDeliveries {
		t.Errorf("crash should reduce deliveries: %d vs healthy %d",
			broken.ValidDeliveries, healthy.ValidDeliveries)
	}
}

// sameCounters fails the test for every listed ledger counter on which
// the two backends disagree — the exact-agreement half of a crossval.
func sameCounters(t *testing.T, sim, live runtime.Result, ids ...metrics.Counter) {
	t.Helper()
	for _, id := range ids {
		info := metrics.Counters[id]
		if s, l := *info.Field(&sim.Ledger), *info.Field(&live.Ledger); s != l {
			t.Errorf("%s diverged: sim %d, live %d", info.Name, s, l)
		}
	}
}
