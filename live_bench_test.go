package bdps

import (
	"sync"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// benchChainOverlay is a three-broker chain: ingress 0 → 1 → 2 edge,
// so every message crosses two overlay links plus the client legs.
func benchChainOverlay(b *testing.B) *topology.Overlay {
	b.Helper()
	g := topology.NewGraph(3)
	for i := msg.NodeID(0); i < 2; i++ {
		if err := g.AddLink(i, i+1, stats.Normal{Mean: 50, Sigma: 5}); err != nil {
			b.Fatal(err)
		}
	}
	return &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{2}}
}

// BenchmarkLiveThroughput drives an in-process live cluster at maximum
// rate — TimeScale ≈ 0 turns link pacing and processing delay off — and
// measures the data plane itself: decode, match, enqueue, schedule,
// encode, socket writes. ns/op is the wall time per published message
// end to end (injection through cluster quiescence, every message
// delivered to a subscriber); msgs/sec and allocs/op (the whole
// pipeline, all goroutines) are the headline numbers.
func BenchmarkLiveThroughput(b *testing.B) {
	c, err := livenet.StartCluster(livenet.ClusterConfig{
		Overlay:  benchChainOverlay(b),
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		// Pacing off: emulated link sleeps round to 0 wall time. The
		// default absolute wall clock (scale 1) keeps deadline math
		// sane: microsecond wall latencies against second-scale bounds.
		TimeScale: 1e-9,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := livenet.DialSubscriber(c.Addr(2), sub)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond) // subscription flood

	const nPubs = 4
	pubs := make([]*livenet.Publisher, nPubs)
	for i := range pubs {
		p, err := livenet.DialPublisher(c.Addr(0), msg.NodeID(i))
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		pubs[i] = p
	}
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})

	b.ReportAllocs()
	b.ResetTimer()

	var wg sync.WaitGroup
	for i, p := range pubs {
		n := b.N / nPubs
		if i < b.N%nPubs {
			n++
		}
		wg.Add(1)
		go func(p *livenet.Publisher, n int) {
			defer wg.Done()
			for j := 0; j < n; j++ {
				if _, err := p.Publish(0, attrs, 1, 60*vtime.Second, nil); err != nil {
					b.Error(err)
					return
				}
			}
		}(p, n)
	}
	wg.Wait()

	// Run to quiescence: every injected message delivered or dropped,
	// every queue empty, nothing in flight.
	if err := c.WaitIdle(b.N, 2*time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	total := c.TotalStats()
	if total.Deliveries < b.N {
		b.Fatalf("delivered %d of %d messages", total.Deliveries, b.N)
	}
}
