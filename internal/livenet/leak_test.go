package livenet

import (
	grt "runtime"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// TestClusterStopNoGoroutineLeak pins the shutdown path: start a
// cluster, run traffic through it, stop it, and require the goroutine
// count to return to baseline. A leaked accept loop, reader, sender or
// shard worker shows up here as a stuck surplus.
func TestClusterStopNoGoroutineLeak(t *testing.T) {
	t.Run("shards=4", func(t *testing.T) { testClusterStopNoGoroutineLeak(t, 4) })
}

func testClusterStopNoGoroutineLeak(t *testing.T, shards int) {
	baseline := grt.NumGoroutine()

	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		Shards:    shards,
	})
	if err != nil {
		t.Fatal(err)
	}

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 20*vtime.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Receive(5 * time.Second); err != nil {
		t.Fatalf("warm-up delivery: %v", err)
	}

	p.Close()
	s.Close()
	c.Stop() // must reap accept loops, readers and senders

	// Client readLoops exit asynchronously once their conns die; poll
	// until the count settles back to the baseline (small slack for
	// unrelated test-runtime goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := grt.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := grt.Stack(buf, true)
			t.Fatalf("goroutines leaked after Stop: %d > baseline %d\n%s",
				grt.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLiveMultipathDedupDynamicFlood covers multipath in the dynamic
// subscription-flood mode: a diamond overlay with Multipath 2 must
// route one publication over both paths, dedup the second arrival at
// the edge, and deliver to the subscriber exactly once.
func TestLiveMultipathDedupDynamicFlood(t *testing.T) {
	g := topology.NewGraph(4)
	for _, l := range []struct {
		a, b msg.NodeID
		mean float64
	}{{0, 1, 50}, {0, 2, 55}, {1, 3, 50}, {2, 3, 55}} {
		if err := g.AddLink(l.a, l.b, stats.Normal{Mean: l.mean, Sigma: 5}); err != nil {
			t.Fatal(err)
		}
	}
	ov := &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{3}}
	c, err := StartCluster(ClusterConfig{
		Overlay:   ov,
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		Multipath: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	sub := &msg.Subscription{ID: 1, Edge: 3, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(3), sub)
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
	want, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 30*vtime.Second, nil)
	if err != nil {
		t.Fatal(err)
	}

	m, err := s.Receive(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != want {
		t.Errorf("delivered id %d, want %d", m.ID, want)
	}
	// Dedup: the copy over the second path must not reach the subscriber
	// again.
	if extra, err := s.Receive(400 * time.Millisecond); err == nil {
		t.Errorf("duplicate delivery %d: multipath dedup broken", extra.ID)
	}
	// Both paths carried the message: 1 (ingress) + 2 (middles) + 2
	// (edge arrivals, one suppressed as duplicate).
	total := c.TotalStats()
	if total.Receptions < 5 {
		t.Errorf("receptions = %d, want ≥5 (message must traverse both paths)", total.Receptions)
	}
	if total.Duplicates == 0 {
		t.Error("edge broker should have counted a suppressed duplicate")
	}
}
