// Aggregation benchmarks: the covering relation on its hot path, the
// million-subscription before/after for table size and flood traffic,
// and churn through the aggregated driver. Run BenchmarkAggregation1M
// at -benchtime 1x (one build per side IS the measurement); the churn
// pair belongs with BenchmarkChurn at -benchtime 2s.
package bdps

import (
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/workload"
)

// BenchmarkCovers measures the allocation-free covering check — the
// probe every subscription admission pays, so it must stay allocation
// free (the warm-up call owns the scratch growth).
func BenchmarkCovers(b *testing.B) {
	fs := paperFilters(1024)
	var scratch filter.CoverScratch
	scratch.Covers(fs[0], fs[1]) // prime the scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.Covers(fs[i%1024], fs[(i*7+1)%1024])
	}
}

// aggChain is the benchmark overlay: a 4-deep chain, so every forwarded
// subscription costs three forwarding entries plus its edge delivery
// entry, and every suppressed one costs at most the delivery entry.
func aggChain(b *testing.B) *topology.Overlay {
	b.Helper()
	g := topology.NewGraph(4)
	for i := msg.NodeID(0); i < 3; i++ {
		if err := g.AddLink(i, i+1, stats.Normal{Mean: 50, Sigma: 10}); err != nil {
			b.Fatal(err)
		}
	}
	return &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{3}}
}

// zipfSubs draws n Zipf-skewed subscriptions (finite template universe,
// rank weight ∝ 1/rank) — the population whose heavy template reuse the
// aggregation tentpole is judged on.
func zipfSubs(b *testing.B, ov *topology.Overlay, n int) []*msg.Subscription {
	b.Helper()
	cfg := workload.Config{
		SubsPerEdge: n / len(ov.Edges),
		Zipf:        workload.Zipf{Universe: 1000},
	}
	return cfg.Subscriptions(ov.Edges)
}

func liveHeap() uint64 {
	stdruntime.GC()
	var m stdruntime.MemStats
	stdruntime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkAggregation1M is the tentpole before/after: build routing
// state for one million Zipf-skewed subscriptions flat and aggregated,
// and report entry counts, flood message counts (one per forwarded
// subscription), and live table heap for both. The acceptance bar —
// entries AND floods shrink at least 5× — is asserted, not just
// reported.
func BenchmarkAggregation1M(b *testing.B) {
	ov := aggChain(b)
	subs := zipfSubs(b, ov, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := liveHeap()
		b.StartTimer()
		flat, err := routing.Build(ov, subs, routing.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		flatEntries := routing.Stats(flat).TotalEntries
		flatBytes := liveHeap() - base
		// Without this the compiler sees flat as dead above and the GC
		// inside liveHeap frees the tables before they are measured.
		stdruntime.KeepAlive(flat)
		flat = nil
		base = liveHeap()
		suppressed := 0
		b.StartTimer()
		_, agg, err := routing.BuildAggregated(ov, subs, routing.Options{},
			func(n int) { suppressed += n })
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		aggEntries := routing.Stats(agg.Tables()).TotalEntries
		aggBytes := liveHeap() - base
		stdruntime.KeepAlive(agg)
		floodsFlat, floodsAgg := len(subs), len(subs)-suppressed

		b.ReportMetric(float64(flatEntries), "entries-flat")
		b.ReportMetric(float64(aggEntries), "entries-agg")
		b.ReportMetric(float64(floodsFlat), "floods-flat")
		b.ReportMetric(float64(floodsAgg), "floods-agg")
		b.ReportMetric(float64(flatBytes)/1e6, "MB-flat")
		b.ReportMetric(float64(aggBytes)/1e6, "MB-agg")
		if flatEntries < 5*aggEntries {
			b.Fatalf("entry shrink below 5x: flat %d, aggregated %d", flatEntries, aggEntries)
		}
		if floodsFlat < 5*floodsAgg {
			b.Fatalf("flood shrink below 5x: flat %d, aggregated %d", floodsFlat, floodsAgg)
		}
		b.StartTimer()
	}
}

// BenchmarkChurnAggregatedOps measures one churn pair (subscribe + an
// earlier unsubscribe) against a 100k-subscription Zipf population on
// the 4-deep chain, flat (per-overlay install/remove) versus through the
// aggregated driver — where most arrivals fold into a group and most
// departures detach without touching forwarding state, but rep
// departures pay promotion or re-exposure.
func BenchmarkChurnAggregatedOps(b *testing.B) {
	const n = 100_000
	ov := aggChain(b)
	pool := zipfSubs(b, ov, 2*n)
	resident, stream := pool[:n], pool[n:]

	churnSub := func(i int, id msg.SubID) *msg.Subscription {
		src := stream[i%len(stream)]
		return &msg.Subscription{ID: id, Edge: src.Edge, Filter: src.Filter,
			Deadline: src.Deadline, Price: src.Price}
	}

	b.Run("flat", func(b *testing.B) {
		tables, err := routing.Build(ov, resident, routing.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := msg.SubID(n + i)
			routing.NewInstaller(ov, routing.Options{}).Install(tables, churnSub(i, id))
			routing.RemoveSubAll(tables, msg.SubID(i%n))
			if i >= n {
				routing.RemoveSubAll(tables, msg.SubID(i))
			}
		}
	})
	b.Run("aggregated", func(b *testing.B) {
		_, agg, err := routing.BuildAggregated(ov, resident, routing.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := msg.SubID(n + i)
			agg.Subscribe(churnSub(i, id))
			agg.Unsubscribe(msg.SubID(i % n))
			if i >= n {
				agg.Unsubscribe(msg.SubID(i))
			}
		}
	})
}

// BenchmarkChurnAggregatedMatch measures edge-broker matching throughput
// on the aggregated 100k Zipf population, quiet and concurrent with a
// churn flood through the aggregated driver (2000 pairs/sec under the
// write lock) — the aggregated twin of BenchmarkChurnMatch.
func BenchmarkChurnAggregatedMatch(b *testing.B) {
	const n = 100_000
	const churnPairsPerSec = 2000
	ov := aggChain(b)
	pool := zipfSubs(b, ov, 2*n)
	resident, stream := pool[:n], pool[n:]

	match := func(b *testing.B, churn bool) {
		tables, agg, err := routing.BuildAggregated(ov, resident, routing.Options{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		edge := tables[ov.Edges[0]]
		edge.EnableIndex()
		var mu sync.RWMutex
		stop := make(chan struct{})
		defer close(stop)
		if churn {
			go func() {
				interval := time.Second / churnPairsPerSec
				next := time.Now()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					src := stream[i%len(stream)]
					id := msg.SubID(n + i)
					mu.Lock()
					agg.Subscribe(&msg.Subscription{ID: id, Edge: src.Edge,
						Filter: src.Filter, Deadline: src.Deadline, Price: src.Price})
					agg.Unsubscribe(msg.SubID(i % n))
					agg.Unsubscribe(id - 1000) // bounded churned-in population
					mu.Unlock()
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
				}
			}()
		}
		m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 8, "A2": 8})}
		var scratch filter.MatchScratch
		var buf []*routing.Entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.RLock()
			buf = edge.MatchAppendWith(&scratch, m, buf[:0])
			mu.RUnlock()
		}
	}
	b.Run("quiet", func(b *testing.B) { match(b, false) })
	b.Run("churning", func(b *testing.B) { match(b, true) })
}
