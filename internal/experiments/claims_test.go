package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// TestPaperClaims is the executable reproduction check: all qualitative
// claims of §6.2 must hold on a 10-minute window. (The full-scale run is
// `bdps-sim -claims`; results are recorded in EXPERIMENTS.md.)
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claims need a window long enough for congestion to build")
	}
	opts := Options{
		Seeds:   []uint64{1},
		Base:    window(10 * vtime.Minute),
		Rates:   []float64{3, 9, 15},
		Weights: []float64{0, 0.5, 0.7, 1},
	}
	results, err := CheckClaims(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(PaperClaims()) {
		t.Fatalf("checked %d claims, want %d", len(results), len(PaperClaims()))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("claim %s failed: %v (%s)", r.Claim.ID, r.Err, r.Claim.Description)
		}
	}
}

func TestRenderClaims(t *testing.T) {
	results := []ClaimResult{
		{Claim: Claim{ID: "ok", Description: "fine"}},
		{Claim: Claim{ID: "bad", Description: "broken"}, Err: errTest},
	}
	var buf bytes.Buffer
	failed, err := RenderClaims(&buf, results)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	out := buf.String()
	if !strings.Contains(out, "PASS ok") || !strings.Contains(out, "FAIL bad") {
		t.Errorf("report:\n%s", out)
	}
}

var errTest = &claimError{"synthetic"}

type claimError struct{ s string }

func (e *claimError) Error() string { return e.s }

func TestClaimsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range PaperClaims() {
		if seen[c.ID] {
			t.Errorf("duplicate claim id %s", c.ID)
		}
		seen[c.ID] = true
		if c.Description == "" || c.Check == nil {
			t.Errorf("claim %s incomplete", c.ID)
		}
	}
}

func TestAblationRunners(t *testing.T) {
	opts := Options{Seeds: []uint64{1}, Base: window(2 * vtime.Minute)}
	for _, id := range Ablations() {
		fig, err := RunAblation(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(fig.Points) < 2 {
			t.Errorf("%s: only %d points", id, len(fig.Points))
		}
		for _, p := range fig.Points {
			for s, v := range p.Values {
				if v < 0 {
					t.Errorf("%s: series %s negative at x=%v: %v", id, s, p.X, v)
				}
			}
		}
	}
	if _, err := RunAblation("nope", opts); err == nil {
		t.Error("unknown ablation should fail")
	}
}

func TestAblationEpsilonShape(t *testing.T) {
	opts := Options{Seeds: []uint64{1}, Base: window(4 * vtime.Minute)}
	fig, err := AblationEpsilon(opts)
	if err != nil {
		t.Fatal(err)
	}
	// ε = 0 produces no hopeless drops; large ε produces many.
	if fig.Points[0].Values["hopeless drops k"] != 0 {
		t.Error("ε=0 must not drop hopeless entries")
	}
	last := fig.Points[len(fig.Points)-1]
	if last.Values["hopeless drops k"] == 0 {
		t.Error("aggressive ε should drop entries")
	}
}

func TestAblationFairnessProducesIndex(t *testing.T) {
	opts := Options{Seeds: []uint64{1}, Base: window(3 * vtime.Minute)}
	fig, err := AblationFairness(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Points {
		if j := p.Values["jain"]; j <= 0 || j > 1 {
			t.Errorf("jain index %v out of (0,1]", j)
		}
	}
}

// TestAblationRecoveryShape pins the recovery ablation's story: after
// the kill-half crash, the unhealed run flatlines while the repaired
// runs return to the quiet baseline, renegotiation doing at least as
// well as plain repair — and the whole figure is deterministic (the
// kill-half cells go through the run cache like any other).
func TestAblationRecoveryShape(t *testing.T) {
	opts := Options{Seeds: []uint64{1}, Base: window(8 * vtime.Minute)}
	fig, err := AblationRecovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 8 {
		t.Fatalf("got %d timeline points, want 8 (duration/8 buckets)", len(fig.Points))
	}
	again, err := AblationRecovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig, again) {
		t.Error("recovery ablation not deterministic across runs")
	}
	// The crash lands at T/4 = bucket 2; detection is near-immediate at
	// this scale, so buckets 4+ are fully post-recovery.
	for _, p := range fig.Points[4:] {
		if p.Values["no recovery"] != 0 {
			t.Errorf("x=%v: unhealed run delivered %.1f%%, want 0 (all paths severed)",
				p.X, p.Values["no recovery"])
		}
		if d := math.Abs(p.Values["repair"] - p.Values["no faults"]); d > 15 {
			t.Errorf("x=%v: repaired rate %.1f%% vs quiet %.1f%% (Δ %.1f > 15)",
				p.X, p.Values["repair"], p.Values["no faults"], d)
		}
		if p.Values["repair+renegotiate"] < p.Values["repair"] {
			t.Errorf("x=%v: renegotiation (%.1f%%) must not trail plain repair (%.1f%%)",
				p.X, p.Values["repair+renegotiate"], p.Values["repair"])
		}
	}
}

// TestAblationLossShape pins the lossy-network ablation's story: loss
// without retransmission bleeds deliveries, retransmission wins them
// back, and the deadline-aware arm strictly dominates the no-retry arm
// at every loss level while never delivering outside a bound — the slack
// check abandons exactly the retries that could only arrive late.
func TestAblationLossShape(t *testing.T) {
	opts := Options{Seeds: []uint64{1}, Base: window(4 * vtime.Minute)}
	fig, err := AblationLoss(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 4 {
		t.Fatalf("got %d loss-rate points, want 4", len(fig.Points))
	}
	again, err := AblationLoss(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig, again) {
		t.Error("loss ablation not deterministic across runs")
	}
	for _, p := range fig.Points {
		if p.Values["no retry"] >= p.Values["no loss"] {
			t.Errorf("x=%v: unhealed loss (%.1f%%) should trail the clean run (%.1f%%)",
				p.X, p.Values["no retry"], p.Values["no loss"])
		}
		if p.Values["deadline-aware"] <= p.Values["no retry"] {
			t.Errorf("x=%v: deadline-aware retry (%.1f%%) must strictly beat no retry (%.1f%%)",
				p.X, p.Values["deadline-aware"], p.Values["no retry"])
		}
	}
}

// TestDeadlineAwareRetryNeverLate drives the deadline-aware arm directly
// on an uncongested pipeline where every on-time path is comfortably
// feasible, so the ONLY way a delivery can run late is a retransmission
// burning more slack than the path had to spare. The path-aware gate
// (the hop-effective deadline of runtime.ResolveSend: each retry must leave the downstream
// hops their SuccessTarget quantile) must then abandon some
// retransmissions (DroppedDeadline > 0) and violate no bound at all
// (LateDeliveries stays 0) — while blind retry on the identical adversary
// does deliver late, and no-retry bleeds deliveries the gate wins back.
func TestDeadlineAwareRetryNeverLate(t *testing.T) {
	mk := func(rel runtime.Reliability) runtime.Config {
		g := topology.NewGraph(6)
		for _, l := range []struct {
			a, b msg.NodeID
			mean float64
		}{{0, 2, 50}, {1, 2, 55}, {2, 3, 45}, {3, 4, 50}, {3, 5, 60}} {
			if err := g.AddLink(l.a, l.b, stats.Normal{Mean: l.mean, Sigma: 5}); err != nil {
				t.Fatal(err)
			}
		}
		return runtime.Config{
			Seed:     1,
			Scenario: msg.PSD,
			Strategy: core.MaxEB{},
			Overlay: &topology.Overlay{
				Graph:   g,
				Ingress: []msg.NodeID{0, 1},
				Edges:   []msg.NodeID{4, 5},
			},
			Workload: workload.Config{
				RatePerMin: 4,
				Duration:   20 * vtime.Minute,
				// ~7.5 s of path time against a 20–23 s bound: on-time
				// without loss, but without slack for unbounded re-sending.
				PSDDelayLo: 20 * vtime.Second,
				PSDDelayHi: 23 * vtime.Second,
			},
			Faults: []runtime.Fault{runtime.LinkLoss{
				From: msg.None, To: msg.None,
				Rate: 0.25, Dup: 0.05,
			}},
			Reliability: rel,
		}
	}
	r, err := runtime.Run(mk(runtime.Reliability{}), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FramesLost == 0 {
		t.Fatal("adversary lost nothing")
	}
	if r.DroppedDeadline == 0 {
		t.Error("25% loss should exhaust some frames' slack")
	}
	if r.LateDeliveries != 0 {
		t.Errorf("deadline-aware retry delivered %d messages late, want 0", r.LateDeliveries)
	}
	if r.Retransmits >= r.FramesLost {
		t.Errorf("abandoning retries must leave retransmits (%d) below losses (%d)",
			r.Retransmits, r.FramesLost)
	}
	blind, err := runtime.Run(mk(runtime.Reliability{BlindRetry: true}), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if blind.DroppedDeadline != 0 {
		t.Errorf("blind retry abandoned %d frames, want 0", blind.DroppedDeadline)
	}
	if blind.Retransmits != blind.FramesLost {
		t.Errorf("blind retry must retry every loss: retransmits %d, losses %d",
			blind.Retransmits, blind.FramesLost)
	}
	if blind.LateDeliveries == 0 {
		t.Error("blind retry under 25% loss should deliver something late — else the gate proves nothing")
	}
	noretry, err := runtime.Run(mk(runtime.Reliability{NoRetry: true}), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveryRate() <= noretry.DeliveryRate() {
		t.Errorf("deadline-aware retry (%.3f) must strictly beat no retry (%.3f)",
			r.DeliveryRate(), noretry.DeliveryRate())
	}
}
