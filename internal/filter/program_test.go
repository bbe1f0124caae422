package filter

import (
	"math"
	"math/rand/v2"
	"testing"
)

// progNums are the numeric operands the equivalence tests draw from:
// ordinary values that collide often, both infinities and NaN.
var progNums = []float64{-1, 0, 1, 2, 2, 3, math.Inf(1), math.Inf(-1), math.NaN()}

// TestProgramEquivalentToMatch: for every operator, over missing
// attributes, string-valued attributes against numeric predicates,
// repeated predicates on one attribute, ±Inf and NaN on either side,
// MatchResolved answers exactly what Match answers — through the program
// where the filter has one, through the fallback where it does not.
func TestProgramEquivalentToMatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	names := []string{"pa", "pb", "pc"}
	num := func() float64 { return progNums[rng.IntN(len(progNums))] }
	var s MatchScratch
	lowered, fallback := 0, 0
	for iter := 0; iter < 20000; iter++ {
		// A conjunction of 1–4 predicates; names repeat, so one attribute
		// regularly carries several (possibly contradictory) predicates.
		var terms []*Filter
		numeric := true
		for n := 1 + rng.IntN(4); n > 0; n-- {
			name := names[rng.IntN(len(names))]
			op := Op(rng.IntN(int(NE) + 1))
			if rng.IntN(12) == 0 {
				terms = append(terms, NewPred(name, op, Str("x")))
				numeric = false
				continue
			}
			if op == NE {
				numeric = false
			}
			terms = append(terms, NewPred(name, op, Num(num())))
		}
		f := And(terms...)
		if rng.IntN(10) == 0 {
			f = Or(f, NewPred(names[0], LT, Num(num())))
			numeric = false
		}
		if got := f.prog.n != 0; got != numeric {
			t.Fatalf("filter %s: lowered = %v, want %v", f, got, numeric)
		}
		if numeric {
			lowered++
		} else {
			fallback++
		}
		for k := 0; k < 4; k++ {
			attrs := iterMap{AttrMap{}}
			for _, name := range names {
				switch rng.IntN(5) {
				case 0: // missing
				case 1:
					attrs.AttrMap[name] = Str("x")
				default:
					attrs.AttrMap[name] = Num(num())
				}
			}
			s.Resolve(attrs)
			if got, want := f.MatchResolved(&s, attrs), f.Match(attrs); got != want {
				t.Fatalf("filter %s on %v: MatchResolved = %v, Match = %v", f, attrs, got, want)
			}
		}
	}
	if lowered < 1000 || fallback < 1000 {
		t.Fatalf("generator covered %d lowered and %d fallback filters", lowered, fallback)
	}
}

// TestProgramNaNKeepsCompareAnswer pins the answer the lowering must
// keep: Value.compare calls NaN "equal" to everything, so <=, >= and ==
// match it and <, > do not — on either side of the comparison.
func TestProgramNaNKeepsCompareAnswer(t *testing.T) {
	nan := math.NaN()
	var s MatchScratch
	for _, tc := range []struct {
		op   Op
		want bool
	}{{LT, false}, {LE, true}, {GT, false}, {GE, true}, {EQ, true}} {
		for _, side := range []struct{ attr, bound float64 }{{nan, 1}, {1, nan}, {nan, nan}} {
			f := NewPred("pa", tc.op, Num(side.bound))
			attrs := iattrs("pa", side.attr)
			s.Resolve(attrs)
			if got := f.MatchResolved(&s, attrs); got != tc.want || f.Match(attrs) != tc.want {
				t.Errorf("%v %s %v: MatchResolved = %v, Match = %v, want %v",
					side.attr, tc.op, side.bound, got, f.Match(attrs), tc.want)
			}
		}
	}
}

// TestProgramLowering: which filters get a program, however they were
// built, and that scratch reuse across messages leaks nothing from one
// message into the next.
func TestProgramLowering(t *testing.T) {
	for src, want := range map[string]int{
		"a < 1":                                  1,
		"a < 1 && b >= 2":                        2,
		"a < 1 && a > 0 && a == 0.5":             3,
		"a != 1":                                 0,
		"a < 1 && b != 2":                        0,
		"a == 'x'":                               0,
		"a < 1 || b < 2":                         0,
		"a < 1 && (b < 2 || c < 3)":              0,
		"true":                                   0,
		"a<1&&b<1&&c<1&&d<1&&e<1&&f<1&&g<1":      7,
		"a<1&&b<1&&c<1&&d<1&&e<1&&f<1&&g<1&&h<1": 0,
	} {
		if got := int(MustParse(src).prog.n); got != want {
			t.Errorf("%q lowered to %d predicates, want %d", src, got, want)
		}
	}
	if n := And(Lt("a", 1), Lt("b", 2)).prog.n; n != 2 {
		t.Errorf("And(Lt, Lt) lowered to %d predicates, want 2", n)
	}
	if n := (&Filter{}).prog.n; n != 0 {
		t.Errorf("wildcard carries a program of %d predicates", n)
	}

	f := MustParse("a < 5 && b < 5")
	var s MatchScratch
	for _, step := range []struct {
		attrs iterMap
		want  bool
	}{
		{iattrs("a", 1.0, "b", 1.0), true},
		{iattrs("a", 1.0), false},           // b must not survive from the last message
		{iattrs("a", 1.0, "b", "1"), false}, // nor match as a string
		{iattrs("b", 1.0, "a", 9.0), false},
		{iattrs("b", 1.0, "a", 4.0, "zz", 0.0), true},
	} {
		s.Resolve(step.attrs)
		if got := f.MatchResolved(&s, step.attrs); got != step.want || f.Match(step.attrs) != step.want {
			t.Errorf("%v: MatchResolved = %v, Match = %v, want %v", step.attrs, got, f.Match(step.attrs), step.want)
		}
	}
}

// TestProgramSlotTableFull: once the attribute table is full, filters
// naming new attributes are left to the fallback and still match.
func TestProgramSlotTableFull(t *testing.T) {
	saved := slots.t.Load()
	defer slots.t.Store(saved)
	full := slotTable{of: make(map[string]uint8, maxSlots)}
	for i := 0; i < maxSlots; i++ {
		name := string(rune('A'+i/26)) + string(rune('a'+i%26)) + "_full"
		full.of[name] = uint8(i)
		full.name = append(full.name, name)
	}
	slots.t.Store(&full)

	f := Lt("never_seen_before", 3)
	if f.prog.n != 0 {
		t.Fatalf("filter on a new attribute lowered with a full slot table")
	}
	attrs := iattrs("never_seen_before", 1.0)
	var s MatchScratch
	s.Resolve(attrs)
	if !f.MatchResolved(&s, attrs) {
		t.Errorf("fallback filter does not match %v", attrs)
	}
	if _, ok := slotOf("never_seen_before"); ok {
		t.Errorf("full slot table interned a new name")
	}
}
