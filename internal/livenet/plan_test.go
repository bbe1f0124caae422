package livenet

import (
	"sort"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// measuredShedPlan is a plan on the tiny chain whose brokers believe
// measured link rates (MeasureSamples) and shed past eight queued
// entries: two settings a broker built outside the plan would miss.
func measuredShedPlan(t *testing.T) *runtime.Plan {
	t.Helper()
	p, err := runtime.NewPlan(runtime.Config{
		Seed:           1,
		Scenario:       msg.PSD,
		Strategy:       core.MaxEB{},
		Overlay:        tinyOverlay(t),
		Workload:       workload.Config{RatePerMin: 12, Duration: 5 * vtime.Minute},
		MeasureSamples: 20,
		Admission:      runtime.Admission{Shed: true, MaxQueue: 8},
		TimeScale:      0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Overlay.Graph.Neighbors(1) {
		if p.Beliefs(1, e.To) == e.Rate {
			t.Fatalf("belief of 1→%d equals its true rate: the plan measures nothing", e.To)
		}
	}
	return p
}

// TestRestartedPlanNodeIsPlanBroker restarts a plan node from its state
// directory: the reborn broker must be what the plan builds — queues on
// the plan's believed link means, shedding at the plan's threshold — as
// the simulator's restart (Plan.RestartBroker) rebuilds it.
func TestRestartedPlanNodeIsPlanBroker(t *testing.T) {
	p := measuredShedPlan(t)
	c, err := StartCluster(ClusterConfig{Plan: p, StateRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	n, err := c.RestartNode(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Restarted(); !ok {
		t.Fatal("broker 1 did not recover from its state directory")
	}
	for _, e := range p.Overlay.Graph.Neighbors(1) {
		if got, want := n.b.Queue(e.To).LinkMean, p.Beliefs(1, e.To).Mean; got != want {
			t.Errorf("reborn queue toward %d believes mean %.3f, the plan %.3f", e.To, got, want)
		}
	}

	// Stopped, the node's senders drain nothing: every publication the
	// reborn broker forwards stays queued toward 2 until shedding caps it.
	n.Stop()
	shed := 0
	proc := n.b.NewProcessor()
	for _, m := range p.Pubs {
		shed += len(proc.Process(m, m.Published).Shed)
	}
	q := n.b.Queue(2)
	if shed == 0 || q.Len() != 8 {
		t.Errorf("reborn broker shed %d entries, queue holds %d: want shedding down to MaxQueue 8", shed, q.Len())
	}
}

// TestPlanNodeUsesBeliefs subscribes at a plan node, as the live churn
// driver does: the entries it installs must be the ones the plan's
// installer computes from its beliefs (what the simulator's churn
// installs), not ones priced on the overlay's true rates. The belief its
// links report beside their estimates (/metrics) is the plan's too.
func TestPlanNodeUsesBeliefs(t *testing.T) {
	p := measuredShedPlan(t)
	c, err := StartCluster(ClusterConfig{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if got, ok := c.Node(1).linkBelief(2); !ok || got != p.Beliefs(1, 2) {
		t.Errorf("link 1→2 reports belief %v, the plan %v", got, p.Beliefs(1, 2))
	}
	sub := &msg.Subscription{ID: 1000, Edge: 2, Filter: &filter.Filter{}, Deadline: 20 * vtime.Second}
	if err := c.Node(2).Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	// The ingress holds the whole path's belief: its entry's rate sums
	// both hops. Wait for the flood to reach it.
	n := c.Node(0)
	var got []*routing.Entry
	for deadline := time.Now().Add(5 * time.Second); len(got) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the subscribe flood never reached the ingress")
		}
		time.Sleep(time.Millisecond)
		n.mu.RLock()
		got = n.table.SubEntries(sub.ID, nil)
		n.mu.RUnlock()
	}

	ref := routing.NewTable(0)
	routing.NewInstaller(p.Overlay, routing.Options{Rates: p.Beliefs}).InstallAt(0, ref, sub)
	want := ref.SubEntries(sub.ID, nil)
	key := func(es []*routing.Entry) {
		sort.Slice(es, func(i, j int) bool {
			if es[i].Source != es[j].Source {
				return es[i].Source < es[j].Source
			}
			return es[i].PathID < es[j].PathID
		})
	}
	key(got)
	key(want)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("node installed %d entries, the plan's installer %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Source != w.Source || g.Next != w.Next || g.Hops != w.Hops || g.PathID != w.PathID || g.Rate != w.Rate {
			t.Errorf("entry %d: node %+v, plan installer %+v", i, *g, *w)
		}
	}
}
