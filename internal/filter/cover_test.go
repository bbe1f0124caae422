package filter

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCoversBasic(t *testing.T) {
	cases := []struct {
		f, g string
		want bool
	}{
		{"a < 10", "a < 5", true},
		{"a < 5", "a < 10", false},
		{"a < 5", "a < 5", true},
		{"a <= 5", "a < 5", true},
		{"a < 5", "a <= 5", false},
		{"a > 1", "a > 2", true},
		{"a >= 2", "a > 2", true},
		{"a > 2", "a >= 2", false},
		{"a < 10", "a < 5 && b < 3", true},
		{"a < 10 && b < 9", "a < 5 && b < 3", true},
		{"a < 10 && b < 2", "a < 5 && b < 3", false},
		{"a < 10 && b < 9", "a < 5", false}, // f constrains b, g does not
		{"a == 3", "a == 3", true},
		{"a <= 3 && a >= 3", "a == 3", true},
		{"a == 3", "a <= 3 && a >= 3", true},
		{"s == 'x'", "s == 'x'", true},
		{"s == 'x'", "s == 'y'", false},
		{"true", "a < 5", true},
		{"a < 5", "true", false},
	}
	for _, c := range cases {
		f, g := MustParse(c.f), MustParse(c.g)
		if got := Covers(f, g); got != c.want {
			t.Errorf("Covers(%q, %q) = %v, want %v", c.f, c.g, got, c.want)
		}
	}
}

func TestCoversDisjunction(t *testing.T) {
	f := MustParse("a < 10 || a > 20")
	g := MustParse("a < 5 || a > 30")
	if !Covers(f, g) {
		t.Error("each disjunct of g is inside a disjunct of f")
	}
	g2 := MustParse("a < 5 || a > 15")
	if Covers(f, g2) {
		t.Error("a>15 is not inside either disjunct of f")
	}
}

func TestCoversConservativeOnNE(t *testing.T) {
	// NE is not representable in the interval algebra; Covers must fall
	// back to false (sound), never true incorrectly.
	f := MustParse("a != 3")
	g := MustParse("a != 3")
	if Covers(f, g) {
		t.Error("NE coverage is not provable; must be conservative")
	}
}

// TestCoversSoundness is the key property: whenever Covers(f, g) is true,
// every point matching g must match f.
func TestCoversSoundness(t *testing.T) {
	prop := func(fx1, fx2, gx1, gx2, p1, p2 float64) bool {
		if anyNaN(fx1, fx2, gx1, gx2, p1, p2) {
			return true
		}
		norm := func(x float64) float64 { return math.Mod(math.Abs(x), 10) }
		f := And(Lt("A1", norm(fx1)), Lt("A2", norm(fx2)))
		g := And(Lt("A1", norm(gx1)), Lt("A2", norm(gx2)))
		if !Covers(f, g) {
			return true // nothing to check
		}
		a := attrs("A1", norm(p1), "A2", norm(p2))
		if g.Match(a) && !f.Match(a) {
			return false // soundness violation
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCoversCompletenessOnPaperForm: for the paper's filter family
// (conjunctions of strict upper bounds) interval reasoning is exact.
func TestCoversCompletenessOnPaperForm(t *testing.T) {
	prop := func(fx1, fx2, gx1, gx2 float64) bool {
		if anyNaN(fx1, fx2, gx1, gx2) {
			return true
		}
		norm := func(x float64) float64 { return math.Mod(math.Abs(x), 10) }
		a1f, a2f := norm(fx1), norm(fx2)
		a1g, a2g := norm(gx1), norm(gx2)
		f := And(Lt("A1", a1f), Lt("A2", a2f))
		g := And(Lt("A1", a1g), Lt("A2", a2g))
		want := a1g <= a1f && a2g <= a2f
		return Covers(f, g) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCoversTransitiveOnIntervals(t *testing.T) {
	f := MustParse("a < 10")
	g := MustParse("a < 7")
	h := MustParse("a < 3")
	if !Covers(f, g) || !Covers(g, h) || !Covers(f, h) {
		t.Error("interval coverage should be transitive here")
	}
}

func TestCoversEmptyDisjunct(t *testing.T) {
	// g's disjunct is unsatisfiable (a<1 && a>5): vacuously covered.
	f := MustParse("a < 0.5")
	g := MustParse("a < 1 && a > 5")
	if !Covers(f, g) {
		t.Error("unsatisfiable g should be covered vacuously")
	}
}
