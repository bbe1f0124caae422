package stats

import (
	"math"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical sequences")
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(42, "link")
	b := Derive(42, "publisher")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("derived streams overlap: %d identical draws", same)
	}
}

func TestDeriveReproducible(t *testing.T) {
	a := Derive(7, "x")
	b := Derive(7, "x")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Derive must be deterministic in (seed, label)")
		}
	}
}

func TestDeriveNDistinctIndices(t *testing.T) {
	a := DeriveN(1, "link", 0)
	b := DeriveN(1, "link", 1)
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Error("DeriveN streams with different indices should differ")
	}
	c := DeriveN(1, "link", 1)
	d := DeriveN(1, "link", 1)
	for i := 0; i < 50; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("DeriveN must be deterministic in (seed, label, n)")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := NewStream(5)
	for i := 0; i < 10000; i++ {
		x := s.Uniform(50, 100)
		if x < 50 || x >= 100 {
			t.Fatalf("Uniform(50,100) produced %v", x)
		}
	}
}

func TestUniformMean(t *testing.T) {
	s := NewStream(6)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(s.Uniform(50, 100))
	}
	if math.Abs(w.Mean()-75) > 0.3 {
		t.Errorf("uniform mean = %v, want ≈75", w.Mean())
	}
}

func TestExponentialMean(t *testing.T) {
	s := NewStream(8)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(s.Exponential(4000))
	}
	if math.Abs(w.Mean()-4000) > 40 {
		t.Errorf("exponential mean = %v, want ≈4000", w.Mean())
	}
}

func TestExponentialInfiniteMean(t *testing.T) {
	s := NewStream(9)
	if !math.IsInf(s.Exponential(math.Inf(1)), 1) {
		t.Error("Exponential(+Inf) should be +Inf")
	}
}

func TestIntNInRange(t *testing.T) {
	s := NewStream(10)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.IntN(3)
		if v < 0 || v >= 3 {
			t.Fatalf("IntN(3) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("IntN(3) over 1000 draws hit %d values, want 3", len(seen))
	}
}

func TestSummaryQuantiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("min/max = %v/%v, want 1/100", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Quantile(0.5)) ||
		!math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty summary statistics should be NaN")
	}
}

func TestSummaryAddAfterQuantile(t *testing.T) {
	var s Summary
	s.Add(3)
	s.Add(1)
	_ = s.Quantile(0.5) // forces sort
	s.Add(2)
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("median after interleaved add = %v, want 2", got)
	}
}
