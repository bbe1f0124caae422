package bdps

import (
	"sync"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// BenchmarkFlashCrowdThroughput is the overload before/after pair: a
// correlated max-rate blast (the flash crowd, stripped to its essence)
// through the live plane, with and without the overload
// defenses armed. "unprotected" is the baseline pipeline; "protected"
// adds end-to-end backpressure, node-local admission control and
// pressure shedding, reporting the rejected share alongside msgs/sec —
// the run-time cost of keeping queues bounded while the crowd hits.
func BenchmarkFlashCrowdThroughput(b *testing.B) {
	b.Run("unprotected", func(b *testing.B) { benchmarkFlashCrowd(b, false) })
	b.Run("protected", func(b *testing.B) { benchmarkFlashCrowd(b, true) })
}

func benchmarkFlashCrowd(b *testing.B, protected bool) {
	cfg := livenet.ClusterConfig{
		Overlay:   benchChainOverlay(b),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 1e-9,
		Seed:      1,
	}
	if protected {
		cfg.MaxEgress = 256
		cfg.Admission = runtime.Admission{Enabled: true, Shed: true, MaxQueue: 128}
	}
	c, err := livenet.StartCluster(cfg)
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
	go func() {
		for range s.C() {
		}
	}()
	time.Sleep(100 * time.Millisecond) // subscription flood

	// The crowd: twice the steady harness's publisher count, all
	// blasting at once.
	const nPubs = 8
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

	if err := c.WaitIdle(b.N, 2*time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	total := c.TotalStats()
	if protected {
		b.ReportMetric(100*float64(total.PubsRejected)/float64(b.N), "rejected%")
		// Everything the door admitted must be accounted for: delivered,
		// shed under pressure, or dropped by deadline policy.
		accounted := total.Deliveries + total.DropsShed + total.DropsExpired + total.DropsHopeless
		if admitted := b.N - total.PubsRejected; accounted < admitted {
			b.Fatalf("admitted %d, accounted %d", admitted, accounted)
		}
		b.ReportMetric(float64(c.PeakQueue()), "peak-queue")
	} else if total.Deliveries < b.N {
		b.Fatalf("delivered %d of %d messages", total.Deliveries, b.N)
	}
}
