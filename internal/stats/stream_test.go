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
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("min/max = %v/%v, want 1/100", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Quantile(0.5)) ||
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

// TestStreamDrawsPinned pins the first draws of two derived streams, of
// each kind the system uses, to the values the streams drew when each
// was three objects (a Stream pointing at a separately allocated Rand
// and PCG): embedding them changed no draw.
func TestStreamDrawsPinned(t *testing.T) {
	for _, c := range []struct {
		seed            uint64
		label           string
		n               int
		unif, norm, exp [8]float64
	}{
		{1, "simnet/link", 0,
			[8]float64{0.9887637877592903, 0.3081494136178199, 0.20756077247398763, 0.7750609281453354, 0.6431972439416563, 0.0751446524576802, 0.007183260012846304, 0.5391892141547043},
			[8]float64{-0.22427639827033197, 0.6211729047448791, 1.8122354898054067, -1.4437319079044235, 0.6636330424387243, -0.44201016414949734, 1.4631207307467253, -0.3413210769815027},
			[8]float64{4.522284630734074, 0.19905972178728026, 0.5800539713621009, 0.62057573217579, 0.16060733486047174, 1.4780270286005757, 1.2881304827632913, 0.20134444703925508}},
		{7, "workload/pub", 3,
			[8]float64{0.7175228353478773, 0.5749445140092994, 0.7654052336138083, 0.4708923005979144, 0.27175582426280953, 0.27629819605933503, 0.11908433275669628, 0.4020072263835487},
			[8]float64{2.2091597073512714, 0.18414913837653146, 0.3164051645194064, -0.39471652629526494, 0.7779277441426117, 1.4879543950222658, -0.06977926923750655, 0.7795640097180274},
			[8]float64{2.086284627142032, 0.17390662848773386, 0.0943468466102158, 1.332594491720398, 0.23653502426159032, 0.4608833034749792, 1.6903943985823497, 0.24032463730690418}},
	} {
		for _, k := range []struct {
			name string
			want [8]float64
			draw func(*Stream) float64
		}{
			{"Float64", c.unif, (*Stream).Float64},
			{"NormFloat64", c.norm, (*Stream).NormFloat64},
			{"ExpFloat64", c.exp, func(s *Stream) float64 { return s.Exponential(1) }},
		} {
			s := DeriveN(c.seed, c.label, c.n)
			for i, want := range k.want {
				if got := k.draw(s); got != want {
					t.Errorf("DeriveN(%d, %q, %d) %s draw %d = %v, want %v", c.seed, c.label, c.n, k.name, i, got, want)
				}
			}
		}
	}
}

// TestStreamIsOneObject: deriving a stream allocates the Stream alone.
func TestStreamIsOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not judged under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { DeriveN(1, "simnet/link", 3).Float64() }); n != 1 {
		t.Errorf("DeriveN allocated %v objects, want 1", n)
	}
}
