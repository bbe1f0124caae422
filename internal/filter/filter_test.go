package filter

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func attrs(kv ...any) AttrMap {
	m := AttrMap{}
	for i := 0; i+1 < len(kv); i += 2 {
		name := kv[i].(string)
		switch v := kv[i+1].(type) {
		case float64:
			m[name] = Num(v)
		case int:
			m[name] = Num(float64(v))
		case string:
			m[name] = Str(v)
		}
	}
	return m
}

func TestPredicateMatchValue(t *testing.T) {
	cases := []struct {
		p    Predicate
		v    Value
		want bool
	}{
		{Predicate{"A", LT, Num(5)}, Num(4), true},
		{Predicate{"A", LT, Num(5)}, Num(5), false},
		{Predicate{"A", LE, Num(5)}, Num(5), true},
		{Predicate{"A", GT, Num(5)}, Num(6), true},
		{Predicate{"A", GT, Num(5)}, Num(5), false},
		{Predicate{"A", GE, Num(5)}, Num(5), true},
		{Predicate{"A", EQ, Num(5)}, Num(5), true},
		{Predicate{"A", EQ, Num(5)}, Num(5.1), false},
		{Predicate{"A", NE, Num(5)}, Num(5.1), true},
		{Predicate{"A", NE, Num(5)}, Num(5), false},
		{Predicate{"A", EQ, Str("x")}, Str("x"), true},
		{Predicate{"A", EQ, Str("x")}, Str("y"), false},
		{Predicate{"A", LT, Str("m")}, Str("a"), true},
		{Predicate{"A", LT, Str("m")}, Str("z"), false},
		// Cross-kind comparisons never match.
		{Predicate{"A", EQ, Num(5)}, Str("5"), false},
		{Predicate{"A", LT, Str("z")}, Num(1), false},
	}
	for _, c := range cases {
		if got := c.p.MatchValue(c.v); got != c.want {
			t.Errorf("%v .MatchValue(%v) = %v, want %v", c.p, c.v, got, c.want)
		}
	}
}

func TestParseAndMatchPaperForm(t *testing.T) {
	// The exact workload form from §6.1.
	f, err := Parse("A1 < 6.5 && A2 < 3.0")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Match(attrs("A1", 5.0, "A2", 2.0)) {
		t.Error("should match (5,2)")
	}
	if f.Match(attrs("A1", 7.0, "A2", 2.0)) {
		t.Error("should not match (7,2)")
	}
	if f.Match(attrs("A1", 5.0, "A2", 3.0)) {
		t.Error("should not match (5,3): strict less-than")
	}
	if f.Match(attrs("A1", 5.0)) {
		t.Error("missing attribute must not match")
	}
}

func TestParseOperators(t *testing.T) {
	cases := []struct {
		src  string
		a    AttrMap
		want bool
	}{
		{"x <= 3", attrs("x", 3), true},
		{"x >= 3", attrs("x", 3), true},
		{"x > 3", attrs("x", 3), false},
		{"x == 3", attrs("x", 3), true},
		{"x = 3", attrs("x", 3), true},
		{"x != 3", attrs("x", 4), true},
		{"name == 'alice'", attrs("name", "alice"), true},
		{`name == "bob"`, attrs("name", "alice"), false},
		{"x < -2.5", attrs("x", -3), true},
		{"x < 1e3", attrs("x", 999), true},
		{"x < 1.5e-2", attrs("x", 0.01), true},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := f.Match(c.a); got != c.want {
			t.Errorf("%q .Match(%v) = %v, want %v", c.src, c.a, got, c.want)
		}
	}
}

func TestParseBooleanStructure(t *testing.T) {
	f := MustParse("(a < 1 || b > 9) && c == 'on'")
	if !f.Match(attrs("a", 0, "c", "on")) {
		t.Error("left disjunct should satisfy")
	}
	if !f.Match(attrs("b", 10, "c", "on")) {
		t.Error("right disjunct should satisfy")
	}
	if f.Match(attrs("a", 0, "b", 10, "c", "off")) {
		t.Error("conjunct c must hold")
	}
	if f.Match(attrs("a", 5, "b", 5, "c", "on")) {
		t.Error("neither disjunct holds")
	}
}

func TestParsePrecedenceAndBindsTighter(t *testing.T) {
	// a<1 || b<1 && c<1  ==  a<1 || (b<1 && c<1)
	f := MustParse("a < 1 || b < 1 && c < 1")
	if !f.Match(attrs("a", 0, "b", 9, "c", 9)) {
		t.Error("a alone should satisfy")
	}
	if f.Match(attrs("a", 9, "b", 0, "c", 9)) {
		t.Error("b alone should not satisfy")
	}
	if !f.Match(attrs("a", 9, "b", 0, "c", 0)) {
		t.Error("b && c should satisfy")
	}
}

func TestParseWildcard(t *testing.T) {
	for _, src := range []string{"", "true", "  "} {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if !f.Match(attrs()) || !f.Match(attrs("x", 1)) {
			t.Errorf("Parse(%q) should be wildcard", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"a <", "a", "< 3", "a ! 3", "(a < 1", "a < 1)", "a < 'x", "a &% 3",
		"a < 1 &&", "a < 1 && && b < 2", "a < 1 | b < 2", "a # 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"A1 < 6.5 && A2 < 3",
		"(a < 1 || b > 9) && c == \"on\"",
		"x >= 2 || y != 3 || z == 'q'",
		"true",
	}
	for _, src := range srcs {
		f := MustParse(src)
		again := MustParse(f.String())
		if f.String() != again.String() {
			t.Errorf("round trip changed: %q -> %q -> %q", src, f.String(), again.String())
		}
	}
}

func TestStringRoundTripMatchEquivalence(t *testing.T) {
	// Property: reparsing the canonical form yields the same matcher.
	f := func(x1, x2, a1, a2 float64) bool {
		if anyNaN(x1, x2, a1, a2) {
			return true
		}
		orig := And(Lt("A1", x1), Lt("A2", x2))
		re := MustParse(orig.String())
		a := attrs("A1", a1, "A2", a2)
		return orig.Match(a) == re.Match(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyNaN(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

func TestBuildersMatchParsed(t *testing.T) {
	built := And(Lt("A1", 4), Lt("A2", 7))
	parsed := MustParse("A1<4 && A2<7")
	for a1 := 0.0; a1 < 10; a1 += 0.7 {
		for a2 := 0.0; a2 < 10; a2 += 0.7 {
			a := attrs("A1", a1, "A2", a2)
			if built.Match(a) != parsed.Match(a) {
				t.Fatalf("builder/parser disagree at (%v,%v)", a1, a2)
			}
		}
	}
}

func TestAndOrWildcardIdentities(t *testing.T) {
	w := &Filter{}
	p := Lt("x", 1)
	if got := And(w, p); got.String() != p.String() {
		t.Errorf("And(true, p) = %q, want %q", got.String(), p.String())
	}
	if got := Or(w, p); got.String() != "true" {
		t.Errorf("Or(true, p) = %q, want wildcard", got.String())
	}
	if got := And(); got.String() != "true" {
		t.Errorf("And() = %q, want wildcard", got.String())
	}
	if got := Or(); got.String() != "true" {
		t.Errorf("Or() = %q, want wildcard", got.String())
	}
	if And(nil, nil).Match(attrs()) != true {
		t.Error("And(nil,nil) must be wildcard")
	}
}

func TestDNF(t *testing.T) {
	f := MustParse("(a < 1 || b < 2) && c < 3")
	dnf := f.DNF()
	if len(dnf) != 2 {
		t.Fatalf("DNF has %d disjuncts, want 2", len(dnf))
	}
	for _, conj := range dnf {
		if len(conj) != 2 {
			t.Errorf("disjunct %v has %d predicates, want 2", conj, len(conj))
		}
	}
}

func TestDNFMatchEquivalence(t *testing.T) {
	// Property: DNF evaluation equals tree evaluation.
	f := MustParse("(a < 5 || b > 3) && (c == 1 || a > 2)")
	evalDNF := func(a Attrs) bool {
		for _, conj := range f.DNF() {
			all := true
			for _, p := range conj {
				v, ok := a.Attr(p.Attr)
				if !ok || !p.MatchValue(v) {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
		return false
	}
	prop := func(av, bv, cv float64) bool {
		if anyNaN(av, bv, cv) {
			return true
		}
		a := attrs("a", math.Mod(av, 10), "b", math.Mod(bv, 10), "c", math.Mod(cv, 3))
		return f.Match(a) == evalDNF(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNilFilterMatchesAll(t *testing.T) {
	var f *Filter
	if !f.Match(attrs("x", 1)) {
		t.Error("nil filter should match everything")
	}
	if f.String() != "true" {
		t.Error("nil filter renders as true")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on invalid input should panic")
		}
	}()
	MustParse("a <")
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{LT: "<", LE: "<=", GT: ">", GE: ">=", EQ: "==", NE: "!="} {
		if op.String() != want {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), want)
		}
	}
	if !strings.HasPrefix(Op(99).String(), "Op(") {
		t.Error("unknown op should render as Op(n)")
	}
}

func TestValueString(t *testing.T) {
	if Num(2.5).String() != "2.5" {
		t.Errorf("Num render: %q", Num(2.5).String())
	}
	if Str("hi").String() != `"hi"` {
		t.Errorf("Str render: %q", Str("hi").String())
	}
}

// TestPredicateStringMatchesFmt: the builder rendering must stay
// byte-identical to the fmt form it replaced — canonical renderings key
// CoverIndex and cross the wire.
func TestPredicateStringMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nums := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e20, 1e-7, 123456789.125, 5e-324,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1 << 53, 0.30000000000000004,
	}
	strs := []string{"", "x", "it's", `say "hi"`, `back\slash`, "tab\there", "naïve", "日本語", "\x00\xff", "a b"}
	attrs := []string{"A1", "price", "", "weird attr", "ünï"}
	check := func(p Predicate) {
		t.Helper()
		want := fmt.Sprintf("%s %s %s", p.Attr, p.Op, p.Val)
		if got := p.String(); got != want {
			t.Fatalf("String() = %q, fmt form %q", got, want)
		}
		if got := NewPred(p.Attr, p.Op, p.Val).String(); got != want {
			t.Fatalf("filter String() = %q, fmt form %q", got, want)
		}
		if got, want := And(NewPred(p.Attr, p.Op, p.Val), Lt("z", 1)).String(), want+" && z < 1"; got != want {
			t.Fatalf("conjunction String() = %q, want %q", got, want)
		}
	}
	for op := LT; op <= NE+1; op++ { // one past NE: the Op(%d) form
		for _, attr := range attrs {
			for _, x := range nums {
				check(Predicate{Attr: attr, Op: op, Val: Num(x)})
			}
			for _, s := range strs {
				check(Predicate{Attr: attr, Op: op, Val: Str(s)})
			}
		}
	}
	for i := 0; i < 2000; i++ {
		x := math.Float64frombits(r.Uint64())
		if i%2 == 0 {
			x = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
		}
		check(Predicate{Attr: attrs[r.Intn(len(attrs))], Op: Op(r.Intn(6)), Val: Num(x)})
	}
}
