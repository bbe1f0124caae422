package livenet

import (
	"fmt"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// TestTombstonesBounded pins the unsubscribe tombstone memory bound: a
// million-user churn soak must not leak — the set holds at most two
// generations, evicting the oldest wholesale.
func TestTombstonesBounded(t *testing.T) {
	ts := tombstones{limit: 100}
	for i := 0; i < 1000; i++ {
		ts.add(msg.SubID(i))
	}
	if ts.len() > 200 {
		t.Fatalf("tombstone set holds %d ids, want ≤ 2×limit (200)", ts.len())
	}
	// The most recent limit's worth must still be present.
	for i := 900; i < 1000; i++ {
		if !ts.has(msg.SubID(i)) {
			t.Fatalf("recent tombstone %d evicted", i)
		}
	}
	// The oldest generation is gone.
	if ts.has(0) {
		t.Fatal("ancient tombstone survived generational eviction")
	}
}

// TestNodeChurnStateBounded drives unsubscribe floods through a node and
// checks the per-node churn bookkeeping stays bounded: tombstones by
// generation, seenSubs by deletion on unsubscribe.
func TestNodeChurnStateBounded(t *testing.T) {
	g := topology.NewGraph(2)
	if err := g.AddLink(0, 1, stats.Normal{Mean: 10, Sigma: 1}); err != nil {
		t.Fatal(err)
	}
	ov := &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{1}}
	n, err := NewNode(NodeConfig{ID: 1, Plan: barePlan(t, ov, core.MaxEB{}), TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.removedSubs.limit = 50

	f := filter.MustParse("A1 < 1")
	for i := 0; i < 500; i++ {
		id := msg.SubID(i)
		n.Subscribe(&msg.Subscription{ID: id, Edge: 1, Filter: f})
		n.Unsubscribe(id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.removedSubs.len() > 100 {
		t.Fatalf("tombstones grew to %d under churn, want ≤ 100", n.removedSubs.len())
	}
	if len(n.seenSubs) > 0 {
		t.Fatalf("seenSubs retains %d entries after full churn, want 0", len(n.seenSubs))
	}
	if n.table.Len() != 0 {
		t.Fatalf("table retains %d entries after full churn", n.table.Len())
	}
}

// TestClusterChurnSoak floods subscribe/unsubscribe pairs through a
// cluster while a publisher streams messages: a static
// subscriber must keep receiving, the cluster must quiesce, and (under
// -race in CI) concurrent index matching during floods must be clean.
func TestClusterChurnSoak(t *testing.T) {
	g := topology.NewGraph(3)
	for i := 0; i < 2; i++ {
		if err := g.AddLink(msg.NodeID(i), msg.NodeID(i+1), stats.Normal{Mean: 20, Sigma: 2}); err != nil {
			t.Fatal(err)
		}
	}
	edge := msg.NodeID(2)
	c, err := StartCluster(ClusterConfig{
		Overlay:   &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{edge}},
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 1e-6,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	static := &msg.Subscription{ID: 1, Edge: edge, Filter: filter.MustParse("A1 < 100")}
	sub, err := DialSubscriber(c.Addr(edge), static)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	time.Sleep(50 * time.Millisecond) // subscription flood

	pub, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.Clock = c.Clock()

	// Churner: flood subscribe/unsubscribe pairs at the edge broker
	// concurrently with publishing.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < 300; i++ {
			id := msg.SubID(1000 + i)
			s := &msg.Subscription{ID: id, Edge: edge,
				Filter: filter.MustParse(fmt.Sprintf("A1 < %d && A2 < 0", i%50))}
			c.Nodes[edge].Subscribe(s)
			c.Nodes[edge].Unsubscribe(id)
		}
	}()

	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := pub.Publish(0, attrs, 1, 60*vtime.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	<-churnDone

	if err := c.WaitIdle(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		if _, err := sub.Receive(200 * time.Millisecond); err != nil {
			break
		}
		got++
	}
	// The subscriber client drops deliveries when its buffer backs up
	// (slow-consumer policy), so assert on the broker-side counter.
	if s := c.TotalStats(); s.Deliveries != n {
		t.Fatalf("edge broker delivered %d of %d during churn", s.Deliveries, n)
	}
	if got == 0 {
		t.Fatal("static subscriber received nothing during churn")
	}
}
