package main

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"slices"
	"sync"
	"time"

	"bdps/internal/metrics"
	"bdps/internal/vtime"
)

// The tail report. A message counts only inside its bound, so a stall
// longer than the remaining slack makes every message in flight late or
// dropped, and a mean hides it. Per run the report gives the longest gap
// between completions (max_gap_ms) and the latency tail up to p99.9,
// beside what the Go runtime saw over the same window — its GC pauses
// and its goroutines' scheduling latencies — so that a stall can be put
// down to the collector, the scheduler or neither.

// completions is the cluster's metrics sink: it records every delivery's
// latency and the instant it was made.
type completions struct {
	base time.Time // fixed before the cluster starts

	mu  sync.Mutex
	lat []vtime.Millis // publish → delivery; wall ms on the loadgen's clock
	at  []time.Duration
}

func newCompletions(capacity int) *completions {
	return &completions{
		base: time.Now(),
		lat:  make([]vtime.Millis, 0, capacity),
		at:   make([]time.Duration, 0, capacity),
	}
}

func (c *completions) DeliveredAt(_ int32, _ float64, _, latency vtime.Millis, _ bool) {
	at := time.Since(c.base)
	c.mu.Lock()
	c.lat = append(c.lat, latency)
	c.at = append(c.at, at)
	c.mu.Unlock()
}

func (c *completions) Count(metrics.Counter, int) {}

// tail summarizes the recorded completions: how many, the latency
// percentiles in µs (nearest rank), and the longest gap between two
// consecutive completions.
func (c *completions) tail() (n int, p50, p99, p999 float64, maxGap time.Duration) {
	c.mu.Lock()
	lat, at := slices.Clone(c.lat), slices.Clone(c.at)
	c.mu.Unlock()
	if len(lat) == 0 {
		return 0, 0, 0, 0, 0
	}
	slices.Sort(lat)
	rank := func(q float64) float64 {
		i := int(q*float64(len(lat))+0.999999) - 1
		return float64(lat[max(0, min(i, len(lat)-1))]) * 1000
	}
	slices.Sort(at)
	for i := 1; i < len(at); i++ {
		maxGap = max(maxGap, at[i]-at[i-1])
	}
	return len(lat), rank(0.5), rank(0.99), rank(0.999), maxGap
}

// runtimeHists are the runtime/metrics histograms read at both ends of
// the measured window.
var runtimeHists = [...]string{"/sched/pauses/total/gc:seconds", "/sched/latencies:seconds"}

// runtimeSnap is those histograms at one instant.
type runtimeSnap struct {
	counts  [len(runtimeHists)][]uint64
	buckets [len(runtimeHists)][]float64
}

func readRuntime() runtimeSnap {
	samples := make([]rtmetrics.Sample, len(runtimeHists))
	for i, name := range runtimeHists {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	var s runtimeSnap
	for i, sm := range samples {
		if sm.Value.Kind() != rtmetrics.KindFloat64Histogram {
			continue // not on this Go version
		}
		h := sm.Value.Float64Histogram()
		s.counts[i], s.buckets[i] = slices.Clone(h.Counts), slices.Clone(h.Buckets)
	}
	return s
}

// histDelta summarizes the events a histogram gained between two reads:
// their count, and the 99th percentile and the maximum in seconds, each
// as the upper bound of its bucket (the lower bound for the last,
// unbounded one).
func histDelta(before, after []uint64, buckets []float64) (n uint64, p99, worst float64) {
	if len(after) == 0 || len(before) != len(after) {
		return 0, 0, 0
	}
	d := make([]uint64, len(after))
	for i := range after {
		d[i] = after[i] - before[i]
		n += d[i]
	}
	if n == 0 {
		return 0, 0, 0
	}
	bound := func(i int) float64 {
		if hi := buckets[i+1]; !math.IsInf(hi, 1) {
			return hi
		}
		return buckets[i]
	}
	var seen uint64
	for i, k := range d {
		if k == 0 {
			continue
		}
		seen += k
		if p99 == 0 && float64(seen) >= 0.99*float64(n) {
			p99 = bound(i)
		}
		worst = bound(i)
	}
	return n, p99, worst
}

// reportTail prints the run's tail line.
func reportTail(c *completions, before, after runtimeSnap) {
	n, p50, p99, p999, gap := c.tail()
	fmt.Printf("tail: %d completions  max_gap_ms %.3f  p50_us %.0f  p99_us %.0f  p999_us %.0f",
		n, float64(gap)/float64(time.Millisecond), p50, p99, p999)
	for i, name := range [...]string{"gc_pauses", "sched_latencies"} {
		k, q, w := histDelta(before.counts[i], after.counts[i], after.buckets[i])
		fmt.Printf("  %s n %d p99_us %.1f max_us %.1f", name, k, q*1e6, w*1e6)
	}
	fmt.Println()
}
