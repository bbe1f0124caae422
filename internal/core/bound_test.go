package core

import (
	"math"
	"math/rand"
	"testing"

	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// TestPhiBracketBound sweeps the table densely — every interval at 16
// points, its midpoint (where linear interpolation misses most) among
// them — and demands that each bracket holds StdNormalCDF. The worst
// error must also sit at the analytic bound φ(1)/(8·256²) plus rounding,
// so phiErr keeps its margin over it.
func TestPhiBracketBound(t *testing.T) {
	worst, worstZ := 0.0, 0.0
	for i := 0; i < (phiN-1)*16; i++ {
		z := phiLo + float64(i)/(16*phiScale)
		p, r := phiBracket(z)
		if r != phiErr {
			t.Fatalf("z=%v: radius %v inside the table, want phiErr", z, r)
		}
		if d := math.Abs(p - stats.StdNormalCDF(z)); d > worst {
			worst, worstZ = d, z
		}
	}
	analytic := math.Exp(-0.5) / math.Sqrt(2*math.Pi) / (8 * phiScale * phiScale)
	t.Logf("worst |interp − Φ| = %.4g at z = %v; analytic bound %.4g; phiErr %g", worst, worstZ, analytic, phiErr)
	if worst > analytic+1e-12 || worst < analytic*0.99 {
		t.Fatalf("worst error %.6g, want the analytic %.6g plus rounding", worst, analytic)
	}
	if margin := phiErr - worst; margin < 3e-8 {
		t.Fatalf("phiErr %g leaves %.3g over the worst error %.6g, want at least 3e-8", phiErr, margin, worst)
	}

	// Random points, off the sweep's grid.
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		z := phiLo + rnd.Float64()*(-phiLo+9)
		p, r := phiBracket(z)
		if d := math.Abs(p - stats.StdNormalCDF(z)); d > r {
			t.Fatalf("z=%v: |%v − Φ| = %v over the radius %v", z, p, d, r)
		}
	}
}

// TestPhiBracketEdges pins the rules outside the table: from the top up
// Φ is exactly 1 (and the bracket says so, radius 0), below the bottom
// the bracket is [0, Φ(bottom)], and NaN stays NaN.
func TestPhiBracketEdges(t *testing.T) {
	top := phiLo + float64(phiN-1)/phiScale
	if top != 9 {
		t.Fatalf("table top %v, want 9", top)
	}
	for z := top; z <= 64; z += 1.0 / 1024 {
		if p, r := phiBracket(z); p != 1 || r != 0 {
			t.Fatalf("z=%v: bracket (%v, %v), want exactly (1, 0)", z, p, r)
		}
		if got := stats.StdNormalCDF(z); got != 1 {
			t.Fatalf("Φ(%v) = %v, want exactly 1", z, got)
		}
	}
	if p, r := phiBracket(math.Inf(1)); p != 1 || r != 0 {
		t.Fatalf("Φ(+Inf) bracket (%v, %v), want (1, 0)", p, r)
	}
	// Below the top, down to 6·√2 (stats.SureSigmas), Φ is 1 as well, so
	// a z that rounds onto the top is still exact there, and the table's
	// last intervals interpolate between ones.
	for z := math.Nextafter(top, 0); z >= 8.5; z -= 1.0 / 1024 {
		if p, _ := phiBracket(z); p != 1 || stats.StdNormalCDF(z) != 1 {
			t.Fatalf("z=%v: centre %v, Φ %v, want both exactly 1", z, p, stats.StdNormalCDF(z))
		}
	}

	bottom := stats.StdNormalCDF(phiLo)
	for _, z := range []float64{math.Nextafter(phiLo, math.Inf(-1)), -12.5, -20, -38, -40, -1e300, math.Inf(-1)} {
		p, r := phiBracket(z)
		if p-r != 0 || p+r != bottom {
			t.Fatalf("z=%v: bracket [%v, %v], want [0, Φ(−12) = %v]", z, p-r, p+r, bottom)
		}
		if phi := stats.StdNormalCDF(z); phi < 0 || phi > bottom {
			t.Fatalf("Φ(%v) = %v outside [0, Φ(−12)]", z, phi)
		}
	}
	for z := -40.0; z < phiLo; z += 1.0 / 64 {
		if phi := stats.StdNormalCDF(z); phi > bottom {
			t.Fatalf("Φ(%v) = %v above Φ(−12) = %v", z, phi, bottom)
		}
	}
	if p, r := phiBracket(math.NaN()); !math.IsNaN(p) || !math.IsNaN(r) {
		t.Fatalf("NaN bracket (%v, %v), want NaN", p, r)
	}
}

// TestSuccessBracketExactRules: where SuccessProb has an exact rule —
// slack ≤ 0, σ = 0 — the bracket is that value with radius 0; NaN
// inputs give a NaN bracket; a size below minSizeKB is clamped exactly
// as SuccessProb clamps it; and on random targets every bracket holds
// SuccessProb, radius 0 meaning equal bit for bit.
func TestSuccessBracketExactRules(t *testing.T) {
	rate := stats.Normal{Mean: 70, Sigma: 20}
	tg := Target{Deadline: 10000, Price: 1, Hops: 2, Rate: rate}
	for _, now := range []vtime.Millis{9996, 9997, 12000} { // slack 0, < 0
		if p, r := successBracket(&tg, now, 50, 2); p != 0 || r != 0 {
			t.Fatalf("now=%v: slack ≤ 0 bracket (%v, %v), want (0, 0)", now, p, r)
		}
	}
	point := Target{Deadline: 10000, Price: 1, Hops: 1, Rate: stats.Normal{Mean: 70}}
	for _, now := range []vtime.Millis{0, 6000, 6498, 6499, 9000} {
		p, r := successBracket(&point, now, 50, 2)
		if want := SuccessProb(point, now, 50, 2); r != 0 || !bitsEq(p, want) {
			t.Fatalf("σ=0 now=%v: bracket (%v, %v), want (%v, 0)", now, p, r, want)
		}
	}
	nan := math.NaN()
	for name, c := range map[string]struct {
		tg  Target
		now vtime.Millis
	}{
		"deadline": {Target{Deadline: nan, Price: 1, Hops: 1, Rate: rate}, 0},
		"now":      {tg, nan},
		"mean":     {Target{Deadline: 10000, Price: 1, Hops: 1, Rate: stats.Normal{Mean: nan, Sigma: 20}}, 0},
		"sigma":    {Target{Deadline: 10000, Price: 1, Hops: 1, Rate: stats.Normal{Mean: 70, Sigma: nan}}, 0},
	} {
		if p, _ := successBracket(&c.tg, c.now, 50, 2); !math.IsNaN(p) {
			t.Fatalf("NaN %s: bracket centre %v, want NaN", name, p)
		}
		if got := SuccessProb(c.tg, c.now, 50, 2); !math.IsNaN(got) {
			t.Fatalf("NaN %s: SuccessProb %v, want NaN", name, got)
		}
	}
	for _, size := range []float64{0, 1e-9, minSizeKB / 2} {
		p, r := successBracket(&tg, 9990, size, 2)
		wp, wr := successBracket(&tg, 9990, minSizeKB, 2)
		if p != wp || r != wr {
			t.Fatalf("size %v: bracket (%v, %v), want the minSizeKB one (%v, %v)", size, p, r, wp, wr)
		}
		if d := math.Abs(p - SuccessProb(tg, 9990, size, 2)); d > r {
			t.Fatalf("size %v: bracket misses SuccessProb by %v", size, d)
		}
	}

	rnd := rand.New(rand.NewSource(8))
	for i := 0; i < 100000; i++ {
		e := randEntry(rnd, 0)
		if len(e.Targets) == 0 {
			continue
		}
		pd := randPD(rnd)
		now := randNow(rnd, e, pd)
		tg := e.Targets[0]
		p, r := successBracket(&tg, now, e.SizeKB, pd)
		want := SuccessProb(tg, now, e.SizeKB, pd)
		if r == 0 && !bitsEq(p, want) || math.Abs(p-want) > r {
			t.Fatalf("trial %d: bracket (%v, %v) misses SuccessProb %v", i, p, r, want)
		}
	}
}

// TestMetricBracketsHoldExact: on random entries, every strategy's
// bracket holds the exact metric the Pick loop compares, and a radius of
// 0 means the centre is that metric bit for bit.
func TestMetricBracketsHoldExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20000; trial++ {
		e := randEntry(rnd, 0)
		pd := randPD(rnd)
		ctx := Context{Now: randNow(rnd, e, pd), PD: pd, FT: vtime.Millis(rnd.Float64() * 8000)}
		for _, m := range []argmax{{}, {delayed: true, k: 1}, {delayed: true, k: 0.5}, {delayed: true, k: 0}, {delayed: true, k: 1e-12}} {
			v, r := m.bracket(e, ctx)
			want := m.value(e, ctx)
			if r == 0 && !bitsEq(v, want) || math.Abs(v-want) > r {
				t.Fatalf("trial %d %+v: bracket (%v, %v) misses the metric %v", trial, m, v, r, want)
			}
		}
	}
}
