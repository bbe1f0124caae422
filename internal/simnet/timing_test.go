package simnet

import (
	"math"
	"testing"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// TestExactTimingTwoBrokerChain pins the delay model end to end with a
// fully deterministic configuration: fixed link rates, fixed publishing
// intervals, a wildcard subscriber. Every delivered message must take
// exactly PD + size·rate₁ + PD + size·rate₂ + PD milliseconds across a
// two-link chain (§3.2: processing at each broker, propagation on each
// link; the queue is always empty at this load).
func TestExactTimingTwoBrokerChain(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddLink(0, 1, stats.Normal{Mean: 100, Sigma: 20}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2, stats.Normal{Mean: 60, Sigma: 20}); err != nil {
		t.Fatal(err)
	}
	ov := &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0},
		Edges:   []msg.NodeID{2},
	}
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}

	res, err := run(runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Overlay:  ov,
		Workload: workload.Config{
			RatePerMin:    1,
			Duration:      5 * vtime.Minute,
			FixedInterval: true,
			SubsPerEdge:   1,
		},
		Subscriptions: []*msg.Subscription{sub},
		LinkModel:     runtime.LinkFixed, // deterministic rates = the means
	})
	if err != nil {
		t.Fatal(err)
	}

	// 5 messages at exactly 60 s intervals, all delivered.
	if res.Published != 5 {
		t.Fatalf("published = %d, want 5", res.Published)
	}
	if res.TotalTargets != 5 || res.ValidDeliveries != 5 {
		t.Fatalf("targets/valid = %d/%d, want 5/5", res.TotalTargets, res.ValidDeliveries)
	}
	// 5 messages × 3 brokers.
	if res.Receptions != 15 {
		t.Fatalf("receptions = %d, want 15", res.Receptions)
	}

	// Latency: PD + 50·100 + PD + 50·60 + PD = 2 + 5000 + 2 + 3000 + 2.
	const want = 2 + 5000 + 2 + 3000 + 2
	for _, got := range []float64{res.LatencyMeanMs, res.LatencyP50Ms, res.LatencyMaxMs} {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("latency = %v, want exactly %v", got, want)
		}
	}
}

// TestExactTimingQueueingDelay extends the pin to scheduling delay: two
// messages published simultaneously share one link, so the second waits
// exactly one transmission time in the output queue.
func TestExactTimingQueueingDelay(t *testing.T) {
	g := topology.NewGraph(2)
	if err := g.AddLink(0, 1, stats.Normal{Mean: 100, Sigma: 20}); err != nil {
		t.Fatal(err)
	}
	ov := &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0},
		Edges:   []msg.NodeID{1},
	}
	subs := []*msg.Subscription{
		{ID: 1, Edge: 1, Filter: &filter.Filter{}},
	}
	// Two publishers at the same ingress publishing at identical fixed
	// instants gives two messages in the same queue.
	ov2 := &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0, 0},
		Edges:   []msg.NodeID{1},
	}
	res, err := run(runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.FIFO{},
		Params:   core.Params{PD: 2},
		Overlay:  ov2,
		Workload: workload.Config{
			RatePerMin:    1,
			Duration:      1 * vtime.Minute,
			FixedInterval: true,
			SubsPerEdge:   1,
		},
		Subscriptions: subs,
		LinkModel:     runtime.LinkFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidDeliveries != 2 {
		t.Fatalf("valid = %d, want 2", res.ValidDeliveries)
	}
	// First: 2 + 5000 + 2 = 5004. Second: waits 5000 in queue → 10004.
	// Mean and max together fix both latencies exactly.
	if math.Abs(res.LatencyMeanMs-(5004+10004)/2) > 1e-9 ||
		math.Abs(res.LatencyMaxMs-10004) > 1e-9 {
		t.Errorf("latencies mean-of-two %v / max %v, want 7504 / 10004",
			res.LatencyMeanMs, res.LatencyMaxMs)
	}
	_ = ov
}
