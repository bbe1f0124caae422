// Churn benchmarks: the million-subscription matching engine under
// mutation. BenchmarkIndexBuild measures the incremental tail-merge Add
// and the AddBatch bulk path (both near-linear); BenchmarkChurn measures
// sustained subscribe/unsubscribe mutation on an indexed routing table,
// alone and concurrent with matching. Run BenchmarkIndexBuild at -benchtime 1x
// (one build of each size is the measurement) and BenchmarkChurn on a
// clock budget (-benchtime 2s), so the background flood is sustained.
package bdps

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
)

// paperFilters returns n paper-style subscription filters
// ("A1 < x && A2 < y", x,y ∈ (0,10)), memoized per size so filter
// construction stays out of the timed build.
var paperFilters = func() func(n int) []*filter.Filter {
	var mu sync.Mutex
	cache := map[int][]*filter.Filter{}
	return func(n int) []*filter.Filter {
		mu.Lock()
		defer mu.Unlock()
		if fs, ok := cache[n]; ok {
			return fs
		}
		s := stats.NewStream(1)
		fs := make([]*filter.Filter, n)
		for i := range fs {
			fs[i] = filter.And(
				filter.Lt("A1", s.Uniform(0, 10)),
				filter.Lt("A2", s.Uniform(0, 10)),
			)
		}
		cache[n] = fs
		return fs
	}
}()

// BenchmarkIndexBuild builds a match index over n paper-shaped filters
// (rest rows of the index's scan) two ways:
//
//   - incremental: plain Add — unsorted tails merged only when they
//     outgrow √n (the live churn path).
//   - batch: AddBatch — each touched list sorted exactly once (the
//     bulk build a source's compaction runs).
func BenchmarkIndexBuild(b *testing.B) {
	bench := func(n int, build func(fs []*filter.Filter) *filter.Index) func(*testing.B) {
		return func(b *testing.B) {
			fs := paperFilters(n)
			b.ReportAllocs()
			b.ResetTimer()
			var ix *filter.Index
			for i := 0; i < b.N; i++ {
				ix = build(fs)
			}
			if ix.Len() != n {
				b.Fatalf("index holds %d of %d filters", ix.Len(), n)
			}
		}
	}
	incremental := func(fs []*filter.Filter) *filter.Index {
		ix := filter.NewIndex()
		for i, f := range fs {
			ix.Add(int32(i), f)
		}
		return ix
	}
	batch := func(fs []*filter.Filter) *filter.Index {
		ids := make([]int32, len(fs))
		for i := range ids {
			ids[i] = int32(i)
		}
		ix := filter.NewIndex()
		ix.AddBatch(ids, fs)
		return ix
	}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("incremental-%d", n), bench(n, incremental))
	}
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("batch-%d", n), bench(n, batch))
	}
}

// churnTable builds a single-source table of n paper-style entries,
// forced onto an index (EnableIndex).
func churnTable(n int) *routing.Table {
	fs := paperFilters(n)
	tb := routing.NewTable(0)
	for i, f := range fs {
		tb.Add(&routing.Entry{
			Sub:    &msg.Subscription{ID: msg.SubID(i), Edge: 5, Filter: f},
			Source: 0,
			Next:   5,
		})
	}
	tb.EnableIndex()
	return tb
}

// BenchmarkChurnTableOps measures sustained table mutation: one op is a
// subscribe (Add into the live index) plus an unsubscribe of an earlier
// subscription (tombstone + amortized compaction) on a 100k-entry
// indexed table — the per-broker cost of one churn pair.
func BenchmarkChurnTableOps(b *testing.B) {
	const n = 100_000
	tb := churnTable(n)
	fs := paperFilters(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := msg.SubID(n + i)
		tb.Add(&routing.Entry{
			Sub:    &msg.Subscription{ID: id, Edge: 5, Filter: fs[i%n]},
			Source: 0,
			Next:   5,
		})
		tb.RemoveSub(msg.SubID(i % n)) // retire an original entry
		if i >= n {
			tb.RemoveSub(msg.SubID(i)) // steady state: retire churned-in ones too
		}
	}
	if tb.Len() == 0 {
		b.Fatal("table drained")
	}
}

// BenchmarkChurnMatch measures matching throughput on a 100k-entry
// indexed table, quiet and then concurrent with a sustained churn flood
// (2000 subscribe+unsubscribe pairs/sec under the write lock, the
// readers-writer pattern of the live node). The acceptance bar is the
// churning figure staying within ~10% of quiet.
func BenchmarkChurnMatch(b *testing.B) {
	const n = 100_000
	const churnPairsPerSec = 2000
	match := func(b *testing.B, churn bool) {
		tb := churnTable(n)
		fs := paperFilters(n)
		var mu sync.RWMutex
		stop := make(chan struct{})
		var churned int
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
					id := msg.SubID(n + i)
					mu.Lock()
					tb.Add(&routing.Entry{
						Sub:    &msg.Subscription{ID: id, Edge: 5, Filter: fs[i%n]},
						Source: 0,
						Next:   5,
					})
					tb.RemoveSub(msg.SubID(i % n))
					tb.RemoveSub(id - 1000) // bounded churned-in population
					churned++
					mu.Unlock()
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
				}
			}()
		}
		// ~4% selectivity: the match cost is index work plus a few
		// thousand emitted entries, not result-copy noise.
		m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 8, "A2": 8})}
		var scratch filter.MatchScratch
		var buf []*routing.Entry
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mu.RLock()
			buf = tb.MatchAppendWith(&scratch, m, buf[:0])
			mu.RUnlock()
			if len(buf) == 0 {
				b.Fatal("no matches")
			}
		}
		b.StopTimer()
		close(stop)
		if churn {
			b.ReportMetric(float64(churned)/b.Elapsed().Seconds(), "churn-pairs/sec")
		}
	}
	b.Run("quiet", func(b *testing.B) { match(b, false) })
	b.Run("churning", func(b *testing.B) { match(b, true) })
}
