package stats

import (
	"math"
	"sort"
)

// Summary accumulates scalar samples (latencies, queue lengths) and
// reports order statistics. It stores samples; for the experiment sizes in
// this repository (≤ a few hundred thousand deliveries) exact quantiles
// are affordable and simpler than a sketch.
type Summary struct {
	xs     []float64
	sorted bool
	sum    float64
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
	s.sum += x
	s.sorted = false
}

// Count returns the number of samples.
func (s *Summary) Count() int { return len(s.xs) }

// Mean returns the sample mean, or NaN if empty.
func (s *Summary) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.xs))
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

// Std returns the sample standard deviation (unbiased), or 0 with fewer
// than two samples.
func (s *Summary) Std() float64 {
	if len(s.xs) < 2 {
		return 0
	}
	var w Welford
	for _, x := range s.xs {
		w.Add(x)
	}
	return w.Std()
}
