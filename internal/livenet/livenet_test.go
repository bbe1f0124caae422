package livenet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// tinyOverlay: 0 (ingress) — 1 — 2 (edge), fast emulation.
func tinyOverlay(t testing.TB) *topology.Overlay {
	t.Helper()
	g := topology.NewGraph(3)
	if err := g.AddLink(0, 1, stats.Normal{Mean: 50, Sigma: 5}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2, stats.Normal{Mean: 50, Sigma: 5}); err != nil {
		t.Fatal(err)
	}
	return &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0},
		Edges:   []msg.NodeID{2},
	}
}

func startTinyCluster(t *testing.T, scenario msg.Scenario) *Cluster {
	t.Helper()
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  scenario,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002, // 2.5 s emulated hop → 5 ms real
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestLiveEndToEndPSD(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: filter.MustParse("A1 < 5")}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond) // subscription flood

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	attrs := msg.NumAttrs(map[string]float64{"A1": 3, "A2": 1})
	id, err := p.Publish(0, attrs, 50, 20*vtime.Second, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}

	m, err := s.Receive(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != id {
		t.Errorf("delivered id %d, want %d", m.ID, id)
	}
	if string(m.Payload) != "payload" {
		t.Errorf("payload = %q", m.Payload)
	}
	if !s.Valid(m, msg.PSD) {
		t.Error("delivery should be within the 20 s bound")
	}
}

func TestLiveFilteringAndNonMatch(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: filter.MustParse("A1 < 5")}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Non-matching then matching.
	noMatch := msg.NumAttrs(map[string]float64{"A1": 7})
	match := msg.NumAttrs(map[string]float64{"A1": 2})
	if _, err := p.Publish(0, noMatch, 50, 20*vtime.Second, nil); err != nil {
		t.Fatal(err)
	}
	want, err := p.Publish(0, match, 50, 20*vtime.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Receive(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != want {
		t.Errorf("got id %d, want only the matching message %d", m.ID, want)
	}
	// No second delivery.
	if extra, err := s.Receive(300 * time.Millisecond); err == nil {
		t.Errorf("unexpected delivery %d", extra.ID)
	}
}

func TestLiveSSDMultipleTiers(t *testing.T) {
	c := startTinyCluster(t, msg.SSD)

	gold := &msg.Subscription{ID: 1, Edge: 2, Filter: filter.MustParse("A1 < 9"),
		Deadline: 10 * vtime.Second, Price: 3}
	econ := &msg.Subscription{ID: 2, Edge: 2, Filter: filter.MustParse("A1 < 9"),
		Deadline: 60 * vtime.Second, Price: 1}
	s1, err := DialSubscriber(c.Addr(2), gold)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := DialSubscriber(c.Addr(2), econ)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	time.Sleep(100 * time.Millisecond)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Receive(5 * time.Second); err != nil {
		t.Errorf("gold tier: %v", err)
	}
	if _, err := s2.Receive(5 * time.Second); err != nil {
		t.Errorf("econ tier: %v", err)
	}
}

func TestLiveStatsAccumulate(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: filter.MustParse("A1 < 5")}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 20*vtime.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Receive(5 * time.Second); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	total := c.TotalStats()
	// 3 messages × 3 brokers on the path.
	if total.Receptions != 9 {
		t.Errorf("receptions = %d, want 9", total.Receptions)
	}
	if total.ValidDeliveries != 3 {
		t.Errorf("valid deliveries = %d, want 3", total.ValidDeliveries)
	}
}

func TestLivePublisherWrongIngressRejected(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)

	// Dial broker 1 (not an ingress) and claim ingress 0: must be dropped.
	p, err := DialPublisher(c.Addr(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 20*vtime.Second, nil); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Receive(400 * time.Millisecond); err == nil {
		t.Errorf("message %d should have been rejected", m.ID)
	}
}

func TestLiveExpiredMessageNotDelivered(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// 1 ms allowed delay: expires before it can cross two emulated hops.
	if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 1, nil); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Receive(500 * time.Millisecond); err == nil {
		// Delivery may occur if pruning raced the deadline — but it must
		// then be invalid.
		if s.Valid(m, msg.PSD) {
			t.Error("expired message delivered as valid")
		}
	}
}

func TestLiveBrokerCrashDoesNotWedgeOthers(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)

	// Kill the middle broker; the path 0→1→2 is severed.
	c.Nodes[1].Stop()

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 2*vtime.Second, nil); err != nil {
		t.Fatal(err)
	}
	// No delivery — and no deadlock: Stop on the rest must return.
	if m, err := s.Receive(400 * time.Millisecond); err == nil {
		t.Errorf("unexpected delivery %d through a dead broker", m.ID)
	}
	done := make(chan struct{})
	go func() {
		c.Nodes[0].Stop()
		c.Nodes[2].Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked after broker crash")
	}
}

// TestStandaloneCrashAccountsQueuedLosses: on a cluster with no plan and
// no sink, what a crash destroys must still land in the node's own
// ledger and on /metrics. Eight 10 KB messages pile up at the middle
// broker behind a link paced at ≈ 2 s per transfer (one held
// mid-transfer, seven queued); crashing the broker charges all eight.
func TestStandaloneCrashAccountsQueuedLosses(t *testing.T) {
	g := topology.NewGraph(3)
	if err := g.AddLink(0, 1, stats.Normal{Mean: 0.01, Sigma: 0.001}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2, stats.Normal{Mean: 200, Sigma: 2}); err != nil {
		t.Fatal(err)
	}
	c, err := StartCluster(ClusterConfig{
		Overlay:   &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{2}},
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 1,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	s, err := DialSubscriber(c.Addr(2), &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)
	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const k = 8
	for i := 0; i < k; i++ {
		if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 10, 10*vtime.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	mid := c.Nodes[1]
	deadline := time.Now().Add(5 * time.Second)
	for mid.egress.Load() != k-1 || mid.busySenders.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never formed at the middle broker:\n%s", c.LoadReport())
		}
		time.Sleep(time.Millisecond)
	}

	mid.Crash()
	if got := mid.Stats().DropsCrashed; got != k {
		t.Errorf("Stats().DropsCrashed = %d, want %d (%d queued + 1 mid-transfer)", got, k, k-1)
	}
	if want := fmt.Sprintf("bdps_drops_crashed_total %d\n", k); !strings.Contains(c.RenderMetrics(), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

func TestLivePaperTopologyCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("full 32-broker live cluster")
	}
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartCluster(ClusterConfig{
		Overlay:   ov,
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.001,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// One subscriber on each of four edge brokers.
	var subs []*Subscriber
	for i, edge := range ov.Edges[:4] {
		sub := &msg.Subscription{ID: msg.SubID(i + 1), Edge: edge, Filter: &filter.Filter{}}
		s, err := DialSubscriber(c.Addr(edge), sub)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subs = append(subs, s)
	}
	time.Sleep(300 * time.Millisecond)

	p, err := DialPublisher(c.Addr(ov.Ingress[0]), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Publish(ov.Ingress[0], msg.NumAttrs(map[string]float64{"A1": 1, "A2": 1}),
		50, 30*vtime.Second, nil); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if _, err := s.Receive(10 * time.Second); err != nil {
			t.Errorf("subscriber %d: %v", i, err)
		}
	}
}

func TestLiveUnsubscribeStopsDeliveries(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Deliveries flow while subscribed.
	if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 20*vtime.Second, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Receive(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Withdraw and let the removal flood.
	if err := s.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)

	if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 20*vtime.Second, nil); err != nil {
		t.Fatal(err)
	}
	if m, err := s.Receive(500 * time.Millisecond); err == nil {
		t.Errorf("delivery %d after unsubscribe", m.ID)
	}

	// The ingress broker no longer forwards (drops on arrival or no
	// match), so a tombstoned resubscribe also stays silent.
	s2, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	time.Sleep(150 * time.Millisecond)
	if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 20*vtime.Second, nil); err != nil {
		t.Fatal(err)
	}
	if m, err := s2.Receive(400 * time.Millisecond); err == nil {
		t.Errorf("tombstoned subscription resurrected: delivery %d", m.ID)
	}
}

func TestLiveLinkEstimates(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const sends = 5
	for i := 0; i < sends; i++ {
		if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 30*vtime.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		if _, err := s.Receive(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	est, observed := c.Nodes[0].LinkEstimate(1)
	if !observed {
		t.Fatal("node 0 should have observed transfers on link to 1")
	}
	// The emulated rate is N(50,5) ms/KB; wall-clock timer jitter at
	// TimeScale 0.002 inflates observations, so bound loosely.
	if est.Mean < 30 || est.Mean > 400 {
		t.Errorf("estimated mean %v ms/KB implausible for a 50 ms/KB link", est.Mean)
	}
	if _, ok := c.Nodes[0].LinkEstimate(99); ok {
		t.Error("estimate for non-neighbor should report not observed")
	}
}

// TestMetricsLinkGauges: every outgoing link of a 3-broker chain exports
// its rate estimate beside the plan's belief — the configured N(50, 5²)
// — and every broker its view of each neighbor's liveness. Heartbeats are
// off, so no neighbor can be declared dead and every peer reads up.
func TestMetricsLinkGauges(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	text := c.RenderMetrics()
	for _, want := range []string{
		"# TYPE bdps_link_rate_ms_per_kb gauge\n",
		"# TYPE bdps_peer_up gauge\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	for _, link := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		from, to := link[0], link[1]
		for _, want := range []string{
			fmt.Sprintf(`bdps_link_rate_ms_per_kb{from="%d",to="%d",source="belief",stat="mean"} 50`+"\n", from, to),
			fmt.Sprintf(`bdps_link_rate_ms_per_kb{from="%d",to="%d",source="belief",stat="stddev"} 5`+"\n", from, to),
			fmt.Sprintf(`bdps_link_rate_ms_per_kb{from="%d",to="%d",source="estimate",stat="mean"} `, from, to),
			fmt.Sprintf(`bdps_link_rate_ms_per_kb{from="%d",to="%d",source="estimate",stat="stddev"} `, from, to),
			fmt.Sprintf(`bdps_peer_up{broker="%d",peer="%d"} 1`+"\n", from, to),
		} {
			if !strings.Contains(text, want) {
				t.Errorf("metrics output missing %q", want)
			}
		}
	}
	if strings.Contains(text, `from="0",to="2"`) || strings.Contains(text, `broker="0",peer="2"`) {
		t.Error("metrics output names a link the overlay does not have")
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := NewNode(NodeConfig{}); err == nil {
		t.Error("nil overlay should fail")
	}
	ov := tinyOverlay(t)
	if _, err := NewNode(NodeConfig{Overlay: ov, TimeScale: 1}); err == nil {
		t.Error("nil strategy should fail")
	}
	if _, err := NewNode(NodeConfig{Overlay: ov, Strategy: core.FIFO{}}); err == nil {
		t.Error("zero TimeScale should fail")
	}
}

func TestDialSubscriberValidation(t *testing.T) {
	if _, err := DialSubscriber("127.0.0.1:1", nil); err == nil {
		t.Error("nil subscription should fail")
	}
}
