package simnet

import (
	"fmt"
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/trace"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// lossTestOverlay is the crossval pipeline: two ingress, a two-broker
// trunk, two edges.
func lossTestOverlay(t testing.TB) *topology.Overlay {
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

// deliverySet runs one config and returns its delivery multiset keyed by
// (message, subscriber edge), counting how often each pair delivered.
func deliverySet(t *testing.T, cfg runtime.Config) map[[2]int64]int {
	t.Helper()
	buf := &trace.Buffer{}
	cfg.Tracer = buf
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
	set := make(map[[2]int64]int)
	for _, e := range buf.Events {
		if e.Kind == trace.Deliver {
			set[[2]int64{int64(e.MsgID), int64(e.Peer)}]++
		}
	}
	return set
}

// TestLossScheduleDeliveryEquivalence is the exactly-once proof: under a
// randomized loss/dup/reorder schedule, retransmission plus per-link
// dedup/reorder healing must reconstruct EXACTLY the delivery set of the
// clean run — the same (message, subscriber) pairs, each delivered
// exactly once. Bounds are generous and retry blind, so no frame is ever
// abandoned; anything the adversary drops, duplicates, or swaps must be
// invisible in the delivered sets, whatever the schedule.
func TestLossScheduleDeliveryEquivalence(t *testing.T) {
	mk := func(seed uint64) runtime.Config {
		return runtime.Config{
			Seed:     seed,
			Scenario: msg.PSD,
			Strategy: core.MaxEB{},
			Overlay:  lossTestOverlay(t),
			Workload: workload.Config{
				RatePerMin: 4,
				Duration:   10 * vtime.Minute,
				PSDDelayLo: 3 * vtime.Minute,
				PSDDelayHi: 4 * vtime.Minute,
			},
			Reliability: runtime.Reliability{BlindRetry: true},
		}
	}
	for _, seed := range []uint64{1, 7, 1234} {
		// Randomize the schedule by deriving the adversary's intensity
		// from the run seed (any deterministic spread works — the point
		// is that no particular schedule is baked into the assertion).
		rate := 0.05 + 0.25*float64(seed%7)/7
		dup := 0.02 + 0.1*float64(seed%5)/5
		reorder := 0.1 * float64(seed%3) / 3
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clean := deliverySet(t, mk(seed))
			if len(clean) == 0 {
				t.Fatal("clean run delivered nothing")
			}
			for pair, n := range clean {
				if n != 1 {
					t.Fatalf("clean run delivered %v %d times", pair, n)
				}
			}
			lossy := mk(seed)
			lossy.Faults = []runtime.Fault{runtime.LinkLoss{
				From: msg.None, To: msg.None,
				Rate: rate, Dup: dup, Reorder: reorder,
			}}
			got := deliverySet(t, lossy)
			if len(got) != len(clean) {
				t.Errorf("delivery sets differ: clean %d pairs, lossy %d", len(clean), len(got))
			}
			for pair, n := range got {
				if n != 1 {
					t.Errorf("lossy run delivered %v %d times (exactly-once broken)", pair, n)
				}
				if clean[pair] == 0 {
					t.Errorf("lossy run delivered %v, absent from the clean run", pair)
				}
			}
			for pair := range clean {
				if got[pair] == 0 {
					t.Errorf("lossy run never delivered %v", pair)
				}
			}
		})
	}
}
