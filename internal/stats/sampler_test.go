package stats

import (
	"math"
	"sort"
	"testing"
)

// ksPasses reports whether a sample passes the one-sample
// Kolmogorov–Smirnov test against cdf at α = 0.001: the statistic
// D = sup |Fₙ(x) − F(x)| stays under the asymptotic critical value
// 1.949/√n (valid for n ≳ 35).
func ksPasses(t *testing.T, sample []float64, cdf func(float64) float64) bool {
	t.Helper()
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := cdf(x)
		// The empirical CDF jumps from i/n to (i+1)/n at x.
		d = max(d, math.Abs(f-float64(i)/n), math.Abs(float64(i+1)/n-f))
	}
	if math.IsNaN(d) {
		t.Fatal("KS statistic is NaN")
	}
	if crit := 1.949 / math.Sqrt(n); d > crit {
		t.Logf("KS D = %v > critical %v", d, crit)
		return false
	}
	return true
}

// TestKSStatisticDetectsWrongDistribution checks that the KS check has
// the power to reject a 15-unit mean shift.
func TestKSStatisticDetectsWrongDistribution(t *testing.T) {
	s := NewStream(3)
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = Normal{Mean: 60, Sigma: 20}.Sample(s)
	}
	if ksPasses(t, sample, Normal{Mean: 75, Sigma: 20}.CDF) {
		t.Error("KS accepts a 15-unit mean shift")
	}
}

// TestNormalSamplerPassesKS statistically validates the normal sampler
// against its own CDF.
func TestNormalSamplerPassesKS(t *testing.T) {
	s := NewStream(17)
	ref := Normal{Mean: 75, Sigma: 20}
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = ref.Sample(s)
	}
	if !ksPasses(t, sample, ref.CDF) {
		t.Error("normal sampler fails KS against its own CDF")
	}
}

// TestGammaSamplerPassesKS statistically validates the shifted-gamma
// sampler against its analytic CDF.
func TestGammaSamplerPassesKS(t *testing.T) {
	s := NewStream(19)
	g := ShiftedGamma{K: 4, Theta: 10, Shift: 10}
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = g.Sample(s)
	}
	if !ksPasses(t, sample, g.CDF) {
		t.Error("gamma sampler fails KS against its CDF")
	}
}

// TestTruncatedNormalKSAgainstTruncatedCDF validates the truncated
// sampler against the renormalized truncated CDF.
func TestTruncatedNormalKSAgainstTruncatedCDF(t *testing.T) {
	s := NewStream(23)
	tn := TruncatedNormal{Normal: Normal{Mean: 20, Sigma: 15}, Min: 1}
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = tn.Sample(s)
	}
	// Truncated CDF: (F(x) − F(min)) / (1 − F(min)) for x >= min. The
	// sampler clamps after 16 rejections, adding a point mass at Min of
	// probability F(min)^16 ≈ 1e-19 here — negligible.
	fMin := tn.Normal.CDF(tn.Min)
	cdf := func(x float64) float64 {
		if x < tn.Min {
			return 0
		}
		return (tn.Normal.CDF(x) - fMin) / (1 - fMin)
	}
	if !ksPasses(t, sample, cdf) {
		t.Error("truncated sampler fails KS against the truncated CDF")
	}
}
