package stats

import (
	"math"
	"sync"
	"testing"
	"unsafe"
)

// histErr is the relative error Histogram's doc comment states.
const histErr = 1.0 / 64

// TestHistogramQuantilesWithinStatedError checks the histogram's
// quantiles against Summary's exact ones on the same samples. With
// n−1 = 100 000 every tested rank is a whole order statistic, so the
// reference is one sample, not an interpolation between two.
func TestHistogramQuantilesWithinStatedError(t *testing.T) {
	const n = 100001
	for _, tc := range []struct {
		name string
		draw func(*Stream) float64
	}{
		{"lognormal", func(s *Stream) float64 { return math.Exp(5 + s.NormFloat64()) }},
		{"uniform", func(s *Stream) float64 { return s.Uniform(1, 1000) }},
		{"pareto-1.2", func(s *Stream) float64 { return math.Pow(1-s.Float64(), -1/1.2) }},
	} {
		s := NewStream(7)
		var h Histogram
		var ref Summary
		var sum float64
		for range n {
			x := tc.draw(s)
			h.Add(x)
			ref.Add(x)
			sum += x
		}
		if h.Count() != n || h.Min() != ref.Min() || h.Max() != ref.Max() {
			t.Errorf("%s: count/min/max = %d/%v/%v, want %d/%v/%v",
				tc.name, h.Count(), h.Min(), h.Max(), n, ref.Min(), ref.Max())
		}
		if math.Abs(h.Sum()-sum) > 1e-9*sum {
			t.Errorf("%s: sum = %v, want %v", tc.name, h.Sum(), sum)
		}
		for _, p := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			got, want := h.Quantile(p), ref.Quantile(p)
			if math.Abs(got-want) > histErr*want {
				t.Errorf("%s: q%v = %v, exact %v (error %.4f > %.4f)",
					tc.name, p, got, want, math.Abs(got-want)/want, histErr)
			}
		}
	}
}

func TestHistogramEmptyAndClamped(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.Min()) || !math.IsNaN(h.Max()) {
		t.Error("empty histogram statistics should be 0 and NaN")
	}
	if h.bins.Load() != nil {
		t.Error("empty histogram allocated its bins")
	}
	for range 5 {
		h.Add(7504)
	}
	if got := h.Quantile(0.5); got != 7504 {
		t.Errorf("median of equal samples = %v, want 7504 (clamped to min = max)", got)
	}
	if size := unsafe.Sizeof(*h.bins.Load()); size > 8<<10 {
		t.Errorf("bins take %d bytes, want ≤ 8 KB", size)
	}
	h.Add(-1)
	h.Add(math.Inf(1))
	if h.Min() != 0 || !math.IsInf(h.Max(), 1) || h.Count() != 7 {
		t.Errorf("negative and infinite samples: min %v max %v count %d", h.Min(), h.Max(), h.Count())
	}
}

// histSamples draws integer-valued samples (their sums are exact in any
// order) spread over the whole bin range.
func histSamples(seed uint64, n int) []float64 {
	s := NewStream(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Floor(math.Exp(s.Uniform(-2, 14)))
	}
	return xs
}

// sameHistogram fails unless a and b agree bin for bin and on sum, min
// and max.
func sameHistogram(t *testing.T, what string, a, b *Histogram) {
	t.Helper()
	if *a.bins.Load() != *b.bins.Load() {
		t.Errorf("%s: bins differ", what)
	}
	if a.Sum() != b.Sum() || a.Min() != b.Min() || a.Max() != b.Max() {
		t.Errorf("%s: sum/min/max %v/%v/%v, want %v/%v/%v",
			what, a.Sum(), a.Min(), a.Max(), b.Sum(), b.Min(), b.Max())
	}
}

func TestHistogramMergeEqualsOneHistogram(t *testing.T) {
	xs, ys := histSamples(1, 5000), histSamples(2, 3000)
	var a, b, all Histogram
	for _, x := range xs {
		a.Add(x)
		all.Add(x)
	}
	for _, y := range ys {
		b.Add(y)
		all.Add(y)
	}
	var empty Histogram
	a.Merge(&b)
	a.Merge(&empty)
	sameHistogram(t, "merged", &a, &all)
	empty.Merge(&all)
	sameHistogram(t, "merged into empty", &empty, &all)
}

func TestHistogramConcurrentAddEqualsSerial(t *testing.T) {
	const writers = 8
	xs := histSamples(3, writers*4000)
	var serial, shared Histogram
	for _, x := range xs {
		serial.Add(x)
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, x := range xs[w*4000 : (w+1)*4000] {
				shared.Add(x)
			}
		}()
	}
	wg.Wait()
	sameHistogram(t, "concurrent", &shared, &serial)
}

func TestHistogramAddAllocates0(t *testing.T) {
	var h Histogram
	h.Add(1)
	if a := testing.AllocsPerRun(1000, func() { h.Add(123.4) }); a != 0 {
		t.Errorf("Add allocates %v times after the first sample, want 0", a)
	}
}
