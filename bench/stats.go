package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-th percentile (0..1) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default exclusive method) does —
// the rule the driver applies to ten runs. Fewer than two values give
// the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one metric of one workload: its value, and beside it the
// values of the pieces it was built from (windows, repetitions, passes;
// the single whole-run value where there are none).
type sample struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// This box shares its cores with other tenants. When one of them runs
// on the sibling hyperthread, everything here takes 30–50% longer, in
// bursts of tens of milliseconds that come thick for minutes and then
// stay away for minutes: the same single-threaded round trip read
// 29.4 ± 0.3 µs over a quiet 20 s and 35–43 µs as the median of a busy
// 20 s. No average over one run removes that. So every timed quantity
// is built from pieces short enough to fit between two bursts, and
// scored on the undisturbed ones: a stream of publications is cut into
// windows of 10–25 ms and scored on its calmest twentieth (calmShare);
// a piece of deterministic work is repeated and scored on its fastest
// repetition (fastest). What disturbs a piece only adds time, and a
// change that slows the code slows the calm pieces too. In a busy
// minute a tenth of 25 ms windows is calm, hence a twentieth: scored so,
// the round trip above read 29.5–29.7 µs through the busy 20 s.
const calmShare = 0.05

// minPool is how many latencies the calm windows must hold between them
// for a p99 worth the name (40 samples beyond it). fanout_match makes
// 43 000 round trips in a run, so there the calm share grows to a tenth.
const minPool = 4000

// calmest returns the share of xs that ranks best by key: lowest first
// for a lower-is-better key, highest first otherwise. At least one.
func calmest[T any](xs []T, share float64, better string, key func(*T) float64) []T {
	out := append([]T(nil), xs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := key(&out[i]), key(&out[j])
		if better == higher {
			return a > b
		}
		return a < b
	})
	n := int(math.Ceil(share * float64(len(out))))
	return out[:min(max(n, 1), len(out))]
}

// fastest is the shortest of the repetitions of one piece of work.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// verdicts of compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// estimate is one side of a comparison: a metric's value with the
// quartiles of the samples behind it.
type estimate struct {
	value, q1, q3 float64
	n             int
}

// spread is the interquartile distance as a share of the value.
func (e estimate) spread() float64 {
	if e.value == 0 {
		return 0
	}
	return math.Abs((e.q3 - e.q1) / e.value)
}

// estimateOf summarizes samples around a chosen value (the samples'
// median unless the metric reports another statistic of them).
func estimateOf(value float64, samples []float64) estimate {
	q1, _, q3 := quartiles(samples)
	return estimate{value: value, q1: q1, q3: q3, n: len(samples)}
}

// judge applies one metric's bound to a baseline and a candidate:
// "worse" when the candidate is worse than the baseline by more than
// bound (a share of the baseline), "unresolved" when either side's own
// spread is wider than the bound (so "unchanged" cannot be told from
// "moved"), otherwise "ok". delta is signed so that positive means worse.
func judge(m metricSpec, base, cand estimate) (delta float64, verdict string) {
	if base.value != 0 {
		delta = (cand.value - base.value) / math.Abs(base.value)
	}
	if m.Better == higher {
		delta = -delta
	}
	switch {
	case delta > m.Bound:
		return delta, verdictWorse
	case base.spread() > m.Bound || cand.spread() > m.Bound:
		return delta, verdictUnresolved
	}
	return delta, verdictOK
}
