package stats

import "math"

// Welford is a numerically stable streaming mean/variance estimator over
// the full observation history.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int { return w.n }

// Mean returns the sample mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// WelfordEstimator is a link-rate estimator: it consumes observations of
// a link's per-kilobyte transmission time — the stand-in for the paper's
// "tools of network measurement" (§3.2) — and reads back N(μ̂, σ̂²), with
// a prior used until enough observations arrive.
type WelfordEstimator struct {
	Prior   Normal // returned until MinObs observations are recorded
	MinObs  int    // defaults to 2
	welford Welford
}

// Observe records one measured per-KB transmission time.
func (e *WelfordEstimator) Observe(x float64) { e.welford.Add(x) }

// Count reports how many observations have been recorded.
func (e *WelfordEstimator) Count() int { return e.welford.Count() }

// Estimate returns the current parameter estimate: the prior until MinObs
// observations are recorded.
func (e *WelfordEstimator) Estimate() Normal {
	min := e.MinObs
	if min < 2 {
		min = 2
	}
	if e.welford.Count() < min {
		return e.Prior
	}
	return Normal{Mean: e.welford.Mean(), Sigma: e.welford.Std()}
}
