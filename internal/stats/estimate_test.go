package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func naiveMoments(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(len(xs)-1)
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Keep magnitudes sane so the naive formula stays accurate.
			xs = append(xs, math.Mod(x, 1e6))
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean, variance := naiveMoments(xs)
		scale := math.Max(1, math.Abs(mean))
		if math.Abs(w.Mean()-mean) > 1e-9*scale {
			return false
		}
		vscale := math.Max(1, variance)
		return math.Abs(w.Var()-variance) <= 1e-8*vscale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordEstimatorPrior(t *testing.T) {
	prior := Normal{Mean: 75, Sigma: 20}
	e := &WelfordEstimator{Prior: prior}
	if got := e.Estimate(); got != prior {
		t.Errorf("before observations: %v, want prior %v", got, prior)
	}
	e.Observe(50)
	if got := e.Estimate(); got != prior {
		t.Errorf("with one observation: %v, want prior", got)
	}
	e.Observe(60)
	got := e.Estimate()
	if math.Abs(got.Mean-55) > 1e-12 {
		t.Errorf("mean = %v, want 55", got.Mean)
	}
}

func TestWelfordEstimatorConverges(t *testing.T) {
	s := NewStream(1)
	truth := Normal{Mean: 80, Sigma: 15}
	e := &WelfordEstimator{Prior: Normal{Mean: 1, Sigma: 1}}
	for i := 0; i < 100000; i++ {
		e.Observe(truth.Sample(s))
	}
	got := e.Estimate()
	if math.Abs(got.Mean-80) > 0.3 {
		t.Errorf("mean = %v, want ≈80", got.Mean)
	}
	if math.Abs(got.Sigma-15) > 0.3 {
		t.Errorf("sigma = %v, want ≈15", got.Sigma)
	}
}
