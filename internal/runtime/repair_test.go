package runtime

import (
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// detourOverlay is a 4-node overlay with a cheap primary path (0-1-3)
// and a more expensive detour (0-2-3): a repair has exactly one place to
// move the routes.
func detourOverlay(t testing.TB, detourMean float64) *topology.Overlay {
	t.Helper()
	g := topology.NewGraph(4)
	for _, l := range []struct {
		a, b msg.NodeID
		mean float64
	}{{0, 1, 50}, {1, 3, 50}, {0, 2, detourMean}, {2, 3, detourMean}} {
		if err := g.AddLink(l.a, l.b, stats.Normal{Mean: l.mean, Sigma: 5}); err != nil {
			t.Fatal(err)
		}
	}
	return &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{3}}
}

func detourPlan(t testing.TB, detourMean float64) *Plan {
	t.Helper()
	p, err := NewPlan(Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Overlay:  detourOverlay(t, detourMean),
		Workload: workload.Config{RatePerMin: 6, Duration: vtime.Minute},
		Recovery: Recovery{Detect: true, Renegotiate: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDetectorReroutesOntoSurvivingPath: one dead arc on the primary
// path must count one detection, move every subscription onto the
// detour, and move it back when the arc is restored.
func TestDetectorReroutesOntoSurvivingPath(t *testing.T) {
	p := detourPlan(t, 90) // detour feasible: Σ rate 180 ms/KB < 10 s bound
	subs := len(p.Subs)
	det := NewFailureDetector(p, nil)

	if p.Tables[1].Len() == 0 || p.Tables[2].Len() != 0 {
		t.Fatalf("initial routes should use the primary path: table1=%d table2=%d",
			p.Tables[1].Len(), p.Tables[2].Len())
	}

	det.ArcDead(1, 3, 0, 2000)
	r := p.Metrics.Result()
	if r.Detections != 1 || r.DetectionLatencyMs != 2000 {
		t.Errorf("detections = %d latency %.0f, want 1 at 2000 ms", r.Detections, r.DetectionLatencyMs)
	}
	if r.ReroutedPaths != subs || r.RefloodedSubs != subs {
		t.Errorf("rerouted %d reflooded %d, want %d each", r.ReroutedPaths, r.RefloodedSubs, subs)
	}
	// The detour is feasible for the 10 s PSD floor, so every bound holds.
	if r.BoundsKept != subs || r.BoundsRelaxed != 0 || r.BoundsRejected != 0 {
		t.Errorf("renegotiation = %d/%d/%d kept/relaxed/rejected, want %d/0/0",
			r.BoundsKept, r.BoundsRelaxed, r.BoundsRejected, subs)
	}
	if p.Tables[1].Len() != 0 || p.Tables[2].Len() != subs {
		t.Errorf("repair left table1=%d table2=%d, want routes moved onto the detour",
			p.Tables[1].Len(), p.Tables[2].Len())
	}

	det.ArcRestored(1, 3)
	r = p.Metrics.Result()
	if r.ReroutedPaths != 2*subs || r.RefloodedSubs != 2*subs {
		t.Errorf("restore should reroute again: rerouted %d reflooded %d, want %d each",
			r.ReroutedPaths, r.RefloodedSubs, 2*subs)
	}
	if p.Tables[1].Len() != subs || p.Tables[2].Len() != 0 {
		t.Errorf("restore left table1=%d table2=%d, want routes back on the primary path",
			p.Tables[1].Len(), p.Tables[2].Len())
	}
	if r.Detections != 1 {
		t.Errorf("restore must not count a detection: %d", r.Detections)
	}
}

// TestDetectorDedupsEvidence: reporting the same dead arc twice (two
// live monitors racing, or a retransmitted event) is one detection and
// one repair.
func TestDetectorDedupsEvidence(t *testing.T) {
	p := detourPlan(t, 90)
	det := NewFailureDetector(p, nil)
	det.ArcDead(1, 3, 0, 2000)
	det.ArcDead(1, 3, 0, 2500)
	r := p.Metrics.Result()
	if r.Detections != 1 {
		t.Errorf("duplicate evidence counted: %d detections, want 1", r.Detections)
	}
	if r.ReroutedPaths != len(p.Subs) {
		t.Errorf("duplicate evidence re-repaired: rerouted %d, want %d", r.ReroutedPaths, len(p.Subs))
	}
}

// TestDetectorInfersNodeDeath: a node none of whose outgoing arcs
// survive is dead, so its incoming arcs are pruned from the surviving
// graph too.
func TestDetectorInfersNodeDeath(t *testing.T) {
	p := detourPlan(t, 90)
	det := NewFailureDetector(p, nil)
	det.ArcsDead([][2]msg.NodeID{{1, 0}, {1, 3}}, 0, 2000)
	g := det.survivingGraph()
	if g.Degree(1) != 0 {
		t.Errorf("node 1 should be fully pruned, has %d arcs", g.Degree(1))
	}
	arcs := det.DeadArcs()
	if len(arcs) != 2 || arcs[0] != [2]msg.NodeID{1, 0} || arcs[1] != [2]msg.NodeID{1, 3} {
		t.Errorf("DeadArcs = %v, want sorted [{1 0} {1 3}]", arcs)
	}
	if r := p.Metrics.Result(); r.Detections != 2 {
		t.Errorf("batch of 2 arcs = %d detections, want 2", r.Detections)
	}
}

// TestDetectorRejectsStrandedSubscriptions: when no surviving path
// reaches an edge, the pairs count as rejected (under renegotiation)
// and nothing is reflooded.
func TestDetectorRejectsStrandedSubscriptions(t *testing.T) {
	p := detourPlan(t, 90)
	subs := len(p.Subs)
	det := NewFailureDetector(p, nil)
	det.ArcsDead([][2]msg.NodeID{{1, 3}, {2, 3}}, 0, 2000)
	r := p.Metrics.Result()
	if r.BoundsRejected != subs {
		t.Errorf("stranded pairs rejected = %d, want %d", r.BoundsRejected, subs)
	}
	if r.RefloodedSubs != 0 || r.ReroutedPaths != 0 {
		t.Errorf("stranded subs reflooded %d rerouted %d, want 0 each",
			r.RefloodedSubs, r.ReroutedPaths)
	}
	if p.Tables[3].Len() != 0 {
		t.Errorf("edge table still has %d entries after stranding", p.Tables[3].Len())
	}
}

// TestRenegotiateBound pins the admission math's three outcomes.
func TestRenegotiateBound(t *testing.T) {
	rate := stats.Normal{Mean: 120, Sigma: 7} // Σ ms/KB of a 2-link path
	const links, sizeKB, pd = 2, 50, 2

	// 10 s bound: slack (10000-4)/50 ≈ 200 ms/KB, far above the mean.
	if floor, out := renegotiateBound(10*vtime.Second, links, rate, sizeKB, pd, 0.5, 3); out != boundKept || floor != 0 {
		t.Errorf("feasible bound = (%v, %d), want kept with floor 0", floor, out)
	}
	// 5 s bound: slack ≈ 100 ms/KB, infeasible; the cheapest feasible
	// bound is links·PD + Quantile(0.5)·S = 4 + 120·50 = 6004 ≤ 3×5000.
	floor, out := renegotiateBound(5*vtime.Second, links, rate, sizeKB, pd, 0.5, 3)
	if out != boundRelaxed || floor != 6004 {
		t.Errorf("infeasible bound = (%v, %d), want relaxed to 6004", floor, out)
	}
	// 1.5 s bound: 6004 > 3×1500, past the relax cap.
	if _, out := renegotiateBound(1500, links, rate, sizeKB, pd, 0.5, 3); out != boundRejected {
		t.Errorf("hopeless bound = %d, want rejected", out)
	}
	// No bound, nothing to renegotiate.
	if _, out := renegotiateBound(0, links, rate, sizeKB, pd, 0.5, 3); out != boundKept {
		t.Errorf("unbounded = %d, want trivially kept", out)
	}
}

// TestApplicableBound pins which bound each scenario renegotiates.
func TestApplicableBound(t *testing.T) {
	p := &Plan{Cfg: Config{
		Scenario: msg.PSD,
		Workload: workload.Config{PSDDelayLo: 10 * vtime.Second},
	}}
	sub := &msg.Subscription{Deadline: 30 * vtime.Second}
	if b := p.applicableBound(sub); b != 10*vtime.Second {
		t.Errorf("PSD bound = %v, want the publisher floor", b)
	}
	p.Cfg.Scenario = msg.SSD
	if b := p.applicableBound(sub); b != 30*vtime.Second {
		t.Errorf("SSD bound = %v, want the subscriber deadline", b)
	}
	p.Cfg.Scenario = msg.Both
	if b := p.applicableBound(sub); b != 10*vtime.Second {
		t.Errorf("Both bound = %v, want the stricter side", b)
	}
	sub.Deadline = 5 * vtime.Second
	if b := p.applicableBound(sub); b != 5*vtime.Second {
		t.Errorf("Both bound = %v, want the subscriber's tighter deadline", b)
	}
	sub.Deadline = 0
	if b := p.applicableBound(sub); b != 10*vtime.Second {
		t.Errorf("Both with no deadline = %v, want the publisher floor", b)
	}
}

// BenchmarkRecovery measures one fail-and-restore repair cycle — two
// surviving-graph recomputations, route diffs and re-floods — on a
// minimal detour overlay and on the paper's layered mesh.
func BenchmarkRecovery(b *testing.B) {
	b.Run("detour", func(b *testing.B) {
		p := detourPlan(b, 90)
		det := NewFailureDetector(p, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			det.ArcDead(1, 3, 0, 2000)
			det.ArcRestored(1, 3)
		}
	})
	b.Run("layered", func(b *testing.B) {
		cfg := planCfg()
		cfg.Recovery = Recovery{Detect: true, Renegotiate: true}
		p, err := NewPlan(cfg)
		if err != nil {
			b.Fatal(err)
		}
		det := NewFailureDetector(p, nil)
		l := p.Links[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			det.ArcDead(l.From, l.To, 0, 2000)
			det.ArcRestored(l.From, l.To)
		}
	})
}

// TestValidateFaultsHardening covers the degenerate fault declarations
// NewPlan must refuse: empty windows, faults past the run horizon, and
// overlapping outages on one link.
func TestValidateFaultsHardening(t *testing.T) {
	cfg := planCfg() // layered default topology: 0→4 is an arc
	cfg.Faults = []Fault{LinkDown{From: 0, To: 4, Start: 5 * vtime.Second, End: 5 * vtime.Second}}
	if _, err := NewPlan(cfg); err == nil {
		t.Error("empty LinkDown window should fail")
	}

	// Horizon for the default workload: 2 min window + 60 s slowest SSD tier.
	cfg = planCfg()
	cfg.Faults = []Fault{LinkDown{From: 0, To: 4, Start: 10 * vtime.Minute, End: 11 * vtime.Minute}}
	if _, err := NewPlan(cfg); err == nil {
		t.Error("LinkDown past the run horizon should fail")
	}
	cfg = planCfg()
	cfg.Faults = []Fault{BrokerCrash{ID: 0, At: 10 * vtime.Minute}}
	if _, err := NewPlan(cfg); err == nil {
		t.Error("BrokerCrash past the run horizon should fail")
	}

	cfg = planCfg()
	cfg.Faults = []Fault{
		LinkDown{From: 0, To: 4, Start: 10 * vtime.Second, End: 30 * vtime.Second},
		LinkDown{From: 0, To: 4, Start: 20 * vtime.Second, End: 40 * vtime.Second},
	}
	if _, err := NewPlan(cfg); err == nil {
		t.Error("overlapping LinkDown windows on one arc should fail")
	}

	// Touching windows are fine, and [Start, End) makes back-to-back legal.
	cfg = planCfg()
	cfg.Faults = []Fault{
		LinkDown{From: 0, To: 4, Start: 10 * vtime.Second, End: 20 * vtime.Second},
		LinkDown{From: 0, To: 4, Start: 20 * vtime.Second, End: 30 * vtime.Second},
	}
	if _, err := NewPlan(cfg); err != nil {
		t.Errorf("back-to-back windows should validate: %v", err)
	}
}

// TestValidateFaultsOrdersDeterministically: NewPlan sorts the fault
// list (time, kind, ids) so backends arm faults identically however the
// caller listed them.
func TestValidateFaultsOrdersDeterministically(t *testing.T) {
	cfg := planCfg()
	cfg.Faults = []Fault{
		LinkDown{From: 0, To: 4, Start: 40 * vtime.Second, End: 50 * vtime.Second},
		BrokerCrash{ID: 0, At: 40 * vtime.Second},
		LinkDown{From: 0, To: 4, Start: 10 * vtime.Second, End: 20 * vtime.Second},
	}
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Cfg.Faults[0].(LinkDown); !ok {
		t.Errorf("fault 0 = %T, want the 10 s LinkDown first", p.Cfg.Faults[0])
	}
	if _, ok := p.Cfg.Faults[1].(BrokerCrash); !ok {
		t.Errorf("fault 1 = %T, want the crash before the same-instant outage", p.Cfg.Faults[1])
	}
	if ld, ok := p.Cfg.Faults[2].(LinkDown); !ok || ld.Start != 40*vtime.Second {
		t.Errorf("fault 2 = %+v, want the 40 s LinkDown last", p.Cfg.Faults[2])
	}
}
