package main

import "testing"

// TestClassify pins the verdict rule: a win or a regression needs ten
// pairs or more, nine in ten of them moved that way, and medians apart
// by more than the base's interquartile range — a regression also past
// the bound; everything else is level (within the bound, base spread
// within it) or unresolved.
func TestClassify(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "msgs_per_s", Better: "higher", Bound: 0.25}
	// series builds n pairs: the base at 100 (±spread, alternating), the
	// change at 100·(1+shift), with the first `against` pairs moved the
	// other way instead.
	series := func(n int, spread, shift float64, against int) []pair {
		var ps []pair
		for i := 0; i < n; i++ {
			a := 100 + spread*float64(i%2*2-1)
			b := 100 * (1 + shift)
			if i < against {
				b = a - 100*shift
			}
			ps = append(ps, pair{a, b})
		}
		return ps
	}
	for _, tc := range []struct {
		name   string
		metric metricSpec
		pairs  []pair
		want   string
	}{
		{"lower is better, 10/10 down", lower, series(10, 1, -0.4, 0), win},
		{"higher is better, 10/10 up", higher, series(10, 1, 0.4, 0), win},
		{"9 of 10 is enough", higher, series(10, 1, 0.4, 1), win},
		{"8 of 10 is not", higher, series(10, 1, 0.4, 2), level},
		{"9 pairs can never win", higher, series(9, 1, 0.4, 0), level},
		{"2 pairs can never win", lower, series(2, 1, -0.9, 0), level},
		{"within the base IQR is no win", higher, series(10, 30, 0.2, 0), unresolved},
		{"10/10 worse is a regression", higher, series(10, 1, -0.4, 0), regression},
		{"lower is better, 10/10 up", lower, series(10, 1, 0.3, 0), regression},
		{"10/10 worse within the bound", lower, series(10, 0.1, 0.02, 0), level},
		{"2 pairs worse past the bound", lower, series(2, 1, 0.5, 0), unresolved},
		{"2 pairs worse within the bound", lower, series(2, 1, 0.1, 0), level},
		{"base spread past the bound", lower, series(4, 40, 0, 0), unresolved},
		{"identical", lower, series(10, 0, 0, 0), level},
		{"zero base, zero change", lower, []pair{{0, 0}, {0, 0}}, level},
		{"zero base, moved", lower, []pair{{0, 1}, {0, 1}}, unresolved},
	} {
		if got := classify("w", tc.metric, tc.pairs).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
