package main

import (
	"math"
	"testing"
	"time"
)

// TestTailGapsAndRanks: the tail line's percentiles are nearest ranks of
// the recorded latencies, and its gap is the longest one between two
// consecutive completions, whatever order they were recorded in.
func TestTailGapsAndRanks(t *testing.T) {
	c := newCompletions(0)
	for i := 1000; i >= 1; i-- {
		c.lat = append(c.lat, float64(i)/1000) // 1 µs … 1000 µs
		at := time.Duration(i) * time.Millisecond
		if i > 500 {
			at += 40 * time.Millisecond // one 41 ms gap between 500 and 501
		}
		c.at = append(c.at, at)
	}
	n, p50, p99, p999, gap := c.tail()
	if n != 1000 || p50 != 500 || p99 != 990 || p999 != 999 {
		t.Errorf("n %d p50 %v p99 %v p999 %v, want 1000 500 990 999", n, p50, p99, p999)
	}
	if gap != 41*time.Millisecond {
		t.Errorf("max gap %v, want 41ms", gap)
	}
	if n, _, _, _, gap := newCompletions(0).tail(); n != 0 || gap != 0 {
		t.Errorf("no completions: n %d gap %v", n, gap)
	}
}

// TestHistDelta: only the events a histogram gained between the reads
// count; p99 and the maximum are bucket upper bounds, the lower bound
// for the unbounded last bucket.
func TestHistDelta(t *testing.T) {
	buckets := []float64{0, 1, 2, 4, math.Inf(1)}
	before := []uint64{5, 5, 5, 5}
	after := []uint64{5, 105, 5, 6} // +100 in [1,2), +1 in [4,∞)
	n, p99, worst := histDelta(before, after, buckets)
	if n != 101 || p99 != 2 || worst != 4 {
		t.Errorf("n %d p99 %v max %v, want 101 2 4", n, p99, worst)
	}
	if n, _, _ := histDelta(before, before, buckets); n != 0 {
		t.Errorf("no new events: n %d", n)
	}
	if n, _, _ := histDelta(nil, nil, nil); n != 0 {
		t.Errorf("metric missing: n %d", n)
	}
}
