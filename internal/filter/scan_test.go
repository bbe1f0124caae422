package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanResult runs a scan and confirms its flagged rows, returning the
// matching positions and how many rows were flagged.
func scanResult(sc *Scan, fs []*Filter, a iterMap) (pos []int, flagged int) {
	var s MatchScratch
	s.Resolve(a)
	for _, r := range s.ScanRows(sc) {
		if r&1 != 0 {
			flagged++
			if !fs[r>>1].MatchResolved(&s, a) {
				continue
			}
		}
		pos = append(pos, int(r>>1))
	}
	return pos, flagged
}

// TestScanDecidesPaperShape: on the paper's filters ("A1 < x && A2 <
// y") the columns decide every row by themselves unless a value sits
// within a float32 ulp of a bound, and the result is Filter.Match's.
func TestScanDecidesPaperShape(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var sc Scan
	var fs []*Filter
	for i := 0; i < 200; i++ {
		f := And(Lt("A1", r.Float64()*100), Lt("A2", r.Float64()*100))
		sc.Add(f)
		fs = append(fs, f)
	}
	if sc.Width() != 2 {
		t.Fatalf("width %d, want 2 (A1 and A2 upper bounds)", sc.Width())
	}
	for k := 0; k < 500; k++ {
		a := iterMap{AttrMap{"A1": Num(r.Float64() * 100), "A2": Num(r.Float64() * 100)}}
		got, flagged := scanResult(&sc, fs, a)
		if flagged != 0 {
			t.Fatalf("%v: %d rows flagged, want none", a.AttrMap, flagged)
		}
		checkPositions(t, got, fs, a)
	}
	// On a bound: that row is flagged and confirmed false.
	b := fs[7].root.(conjNode).preds[0].Val.Num
	a := iterMap{AttrMap{"A1": Num(b), "A2": Num(0)}}
	got, flagged := scanResult(&sc, fs, a)
	if flagged == 0 {
		t.Fatalf("A1 = %v on row 7's bound: nothing flagged", b)
	}
	checkPositions(t, got, fs, a)
}

// TestScanColumnCap: a row needing a ninth (slot, side) column is
// always confirmed, and rows beyond the cap still match exactly. An
// equality takes both sides of its attribute.
func TestScanColumnCap(t *testing.T) {
	var sc Scan
	var fs []*Filter
	for n := 1; n <= 6; n++ {
		var parts []*Filter
		for j := 0; j < n; j++ {
			parts = append(parts, Eq(fmt.Sprintf("c%d", j), Num(float64(j))))
		}
		f := And(parts...)
		sc.Add(f)
		fs = append(fs, f)
	}
	if sc.Width() != maxScanCols {
		t.Fatalf("width %d, want %d", sc.Width(), maxScanCols)
	}
	for i, st := range sc.state {
		if want := i < 4; (st == rowDecided) != want {
			t.Errorf("row %d (%d attributes): state %d", i, i+1, st)
		}
	}
	for _, x := range []float64{-1, 0, 0.5, 1} {
		a := iterMap{AttrMap{}}
		for j := 0; j < 6; j++ {
			a.AttrMap[fmt.Sprintf("c%d", j)] = Num(x + float64(j))
		}
		got, _ := scanResult(&sc, fs, a)
		checkPositions(t, got, fs, a)
	}
}

// TestScanRoundsOutward: a bound between two float32s is stored at the
// float32 on its far side, so a value between the bound and that
// float32 is flagged, never decided, and past float32's range a bound
// or value becomes an infinity.
func TestScanRoundsOutward(t *testing.T) {
	for _, x := range []float64{0.1, -0.1, 1 + 0x1p-30, 3.5e38, -3.5e38, 1e-300, -1e-300} {
		d, u := down32(x), up32(x)
		if !(float64(d) <= x && x <= float64(u)) || d == u {
			t.Errorf("%v: down %v, up %v do not bracket it", x, d, u)
		}
		if math.Nextafter32(d, float32(math.Inf(1))) != u {
			t.Errorf("%v: down %v and up %v are not adjacent", x, d, u)
		}
	}
	for _, x := range []float64{0, 1, math.MaxFloat32, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat32} {
		if d, u := down32(x), up32(x); float64(d) != x || float64(u) != x {
			t.Errorf("%v is a float32: rounded to %v and %v", x, d, u)
		}
	}
	if u := up32(3.5e38); !math.IsInf(float64(u), 1) {
		t.Errorf("up32(3.5e38) = %v, want +Inf", u)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 0.1, -0.1, 1, 1 + 0x1p-30, -1 - 0x1p-30, 1e-300, -1e-300, 5e-324,
		math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 3.5e38, -3.5e38, math.Inf(1), math.Inf(-1)} {
		if d, u := bracket32(x); d != down32(x) || u != up32(x) {
			t.Errorf("bracket32(%v) = %v, %v; want %v, %v", x, d, u, down32(x), up32(x))
		}
	}
}

func checkPositions(t *testing.T, got []int, fs []*Filter, a iterMap) {
	t.Helper()
	var want []int
	for i, f := range fs {
		if f.Match(a) {
			want = append(want, i)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%v: scan %v, filters %v", a.AttrMap, got, want)
	}
}
