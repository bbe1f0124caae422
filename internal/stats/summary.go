package stats

import (
	"math"
	"sort"
)

// Summary accumulates scalar samples and reports exact order statistics.
// It stores every sample: latencies go to a Histogram instead.
type Summary struct {
	xs     []float64
	sorted bool
	min    float64
	max    float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	if len(s.xs) == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Min returns the smallest sample, or NaN if empty.
func (s *Summary) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample, or NaN if empty.
func (s *Summary) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile returns the p-quantile (0 <= p <= 1) using linear
// interpolation between order statistics, or NaN if empty.
func (s *Summary) Quantile(p float64) float64 {
	if len(s.xs) == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	pos := p * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}
