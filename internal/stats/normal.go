// Package stats provides the probability substrate for the bounded-delay
// pub/sub system: the normal and shifted-gamma distributions used to model
// overlay link transmission rates (paper §3.2), truncated sampling,
// parameter estimators that stand in for the paper's "tools of network
// measurement", and deterministic random-number streams so simulations are
// bit-reproducible.
package stats

import (
	"fmt"
	"math"
)

// StdNormalCDF returns Φ(z), the CDF of the standard normal distribution.
func StdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// SureSigmas is a z-score beyond which StdNormalCDF returns exactly 1.0
// in float64 arithmetic, with margin. math.Erfc takes a dedicated branch
// for |x| ≥ 6 that evaluates erfc(x) for negative x as 2−tiny, which
// rounds to exactly 2.0, so Φ(z) = erfc(−z/√2)/2 == 1.0 for every
// z ≥ 6·√2 ≈ 8.486. The margin over that bound absorbs the rounding of
// any caller-side algebra. Schedulers use it to treat a target whose
// standardized slack is at least SureSigmas as certain without paying
// for an Erfc call; TestSureSigmasSaturates verifies the guarantee.
const SureSigmas = 9.5

// StdNormalQuantile returns Φ⁻¹(p) for p in (0,1). It uses Acklam's
// rational approximation refined by one Halley step, giving ~1e-15
// relative accuracy across the domain. It returns ±Inf at p = 0 or 1 and
// NaN outside [0,1].
func StdNormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for Acklam's approximation.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const plow = 0.02425

	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step pushes the error to machine precision.
	e := StdNormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// Normal is a normal distribution N(Mean, Sigma²). Sigma must be >= 0; a
// zero Sigma degenerates to a point mass at Mean, which the CDF and
// quantile handle explicitly (the residual path of length zero has no
// variance).
type Normal struct {
	Mean  float64
	Sigma float64
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma == 0 {
		if x < n.Mean {
			return 0
		}
		return 1
	}
	return StdNormalCDF((x - n.Mean) / n.Sigma)
}

// Tail returns P(X > x) = 1 - CDF(x), computed without cancellation for
// large x.
func (n Normal) Tail(x float64) float64 {
	if n.Sigma == 0 {
		if x < n.Mean {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((x-n.Mean)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the p-quantile of the distribution.
func (n Normal) Quantile(p float64) float64 {
	if n.Sigma == 0 {
		return n.Mean
	}
	return n.Mean + n.Sigma*StdNormalQuantile(p)
}

// Var returns the variance Sigma².
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// Sample draws one variate using the stream's normal generator.
func (n Normal) Sample(s *Stream) float64 {
	return n.Mean + n.Sigma*s.NormFloat64()
}

// String implements fmt.Stringer.
func (n Normal) String() string {
	return fmt.Sprintf("N(%.4g, %.4g²)", n.Mean, n.Sigma)
}

// SumNormal returns the distribution of the sum of independent normals:
// means and variances add. This is the paper's path-rate composition
// TR_p ~ N(Σμᵢ, Σσᵢ²).
func SumNormal(parts ...Normal) Normal {
	var mean, variance float64
	for _, p := range parts {
		mean += p.Mean
		variance += p.Sigma * p.Sigma
	}
	return Normal{Mean: mean, Sigma: math.Sqrt(variance)}
}

// TruncatedNormal is a normal distribution constrained to x >= Min by
// resampling (up to a fixed number of attempts) and finally clamping.
// Link transmission rates must be positive; with the paper's parameters
// (μ ∈ [50,100] ms/KB, σ = 20 ms/KB) the truncation at Min = 1 ms/KB
// touches under 0.7% of the mass at the extreme, so the induced bias on
// the mean is negligible but we still document and test it.
type TruncatedNormal struct {
	Normal
	Min float64
}

// Sample draws a variate >= Min.
func (t TruncatedNormal) Sample(s *Stream) float64 {
	const attempts = 16
	for i := 0; i < attempts; i++ {
		x := t.Normal.Sample(s)
		if x >= t.Min {
			return x
		}
	}
	return t.Min
}
