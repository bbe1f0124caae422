package experiments

import (
	"bytes"
	"strings"
	"testing"

	"bdps/internal/core"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// window returns a base run with a publishing window of d.
func window(d vtime.Millis) runtime.Config {
	return runtime.Config{Workload: workload.Config{Duration: d}}
}

// tinyOpts shrinks runs so the whole figure suite stays fast in tests.
func tinyOpts() Options {
	return Options{
		Seeds:    []uint64{1},
		Base:     window(4 * vtime.Minute),
		Rates:    []float64{6, 12},
		Weights:  []float64{0, 0.5, 1},
		Fig4Rate: Float(8),
	}
}

func TestFigure4aStructure(t *testing.T) {
	fig, err := Figure4a(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "4a" || len(fig.Points) != 3 {
		t.Fatalf("fig = %+v", fig)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %v", fig.Series)
	}
	// EB and PC are flat references.
	for i := 1; i < len(fig.Points); i++ {
		if fig.Value(i, "EB") != fig.Value(0, "EB") {
			t.Error("EB reference line should be flat")
		}
		if fig.Value(i, "PC") != fig.Value(0, "PC") {
			t.Error("PC reference line should be flat")
		}
	}
	// Endpoints coincide with the pure strategies.
	if fig.Value(0, "EBPC") != fig.Value(0, "PC") {
		t.Error("EBPC at r=0 must equal PC")
	}
	last := len(fig.Points) - 1
	if fig.Value(last, "EBPC") != fig.Value(last, "EB") {
		t.Error("EBPC at r=1 must equal EB")
	}
	for _, p := range fig.Points {
		if p.Values["EBPC"] <= 0 {
			t.Error("zero earning in EBPC sweep")
		}
	}
}

func TestFigure4bStructure(t *testing.T) {
	fig, err := Figure4b(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "4b" {
		t.Fatalf("id = %s", fig.ID)
	}
	for _, p := range fig.Points {
		v := p.Values["EBPC"]
		if v <= 0 || v > 100 {
			t.Errorf("delivery rate %v out of (0,100]", v)
		}
	}
}

func TestFigure5ShapesAndSharedRuns(t *testing.T) {
	earning, traffic, err := Figure5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if earning.ID != "5a" || traffic.ID != "5b" {
		t.Fatalf("ids = %s/%s", earning.ID, traffic.ID)
	}
	if len(earning.Points) != 2 || len(traffic.Points) != 2 {
		t.Fatal("rate sweep should have 2 points")
	}
	// Congested point: EB must beat the traditional baselines (the
	// paper's headline result).
	last := len(earning.Points) - 1
	eb := earning.Value(last, "EB")
	if eb <= earning.Value(last, "FIFO") || eb <= earning.Value(last, "RL") {
		t.Errorf("EB earning %v should beat FIFO %v and RL %v at high rate",
			eb, earning.Value(last, "FIFO"), earning.Value(last, "RL"))
	}
	// Traffic is positive everywhere.
	for _, p := range traffic.Points {
		for s, v := range p.Values {
			if v <= 0 {
				t.Errorf("series %s has non-positive traffic %v", s, v)
			}
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	delivery, _, err := Figure6(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := len(delivery.Points) - 1
	eb := delivery.Value(last, "EB")
	if eb <= delivery.Value(last, "RL") {
		t.Errorf("EB delivery %v should beat RL %v under load",
			eb, delivery.Value(last, "RL"))
	}
	// Delivery rate decreases with publishing rate for EB.
	if delivery.Value(0, "EB") <= delivery.Value(last, "EB") {
		t.Error("delivery rate should fall as rate grows")
	}
}

func TestRunDispatch(t *testing.T) {
	opts := tinyOpts()
	for id, want := range map[string]int{
		"4a": 1, "4b": 1, "5": 2, "5a": 1, "5b": 1, "6": 2, "6a": 1, "6b": 1,
	} {
		figs, err := Run(id, opts)
		if err != nil {
			t.Fatalf("Run(%q): %v", id, err)
		}
		if len(figs) != want {
			t.Errorf("Run(%q) returned %d figures, want %d", id, len(figs), want)
		}
	}
	if _, err := Run("7z", opts); err == nil {
		t.Error("unknown figure id should fail")
	}
}

func TestProgressCallback(t *testing.T) {
	opts := tinyOpts()
	var lines []string
	opts.Progress = func(s string) { lines = append(lines, s) }
	if _, err := Figure4a(opts); err != nil {
		t.Fatal(err)
	}
	// 3 weights with endpoints reused: EB + PC + 1 mid EBPC = 3 runs.
	if len(lines) != 3 {
		t.Errorf("progress lines = %d, want 3", len(lines))
	}
}

func TestParamsForBaselines(t *testing.T) {
	opts := tinyOpts()
	opts.setDefaults()
	if p := opts.Base.Params.For(core.FIFO{}); p.Epsilon != 0 {
		t.Error("FIFO must run without ε-detection")
	}
	if p := opts.Base.Params.For(core.RL{}); p.Epsilon != 0 {
		t.Error("RL must run without ε-detection")
	}
	if p := opts.Base.Params.For(core.MaxEB{}); p.Epsilon != core.DefaultEpsilon {
		t.Error("EB should keep the configured ε")
	}
}

// TestOptionsExplicitZero pins the unset-vs-zero distinction: nil means
// "use the paper default", Float(0) is a real zero and must be honored
// rather than silently rewritten to the default.
func TestOptionsExplicitZero(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Fig4Rate == nil || *o.Fig4Rate != 10 {
		t.Errorf("unset Fig4Rate should default to 10, got %v", o.Fig4Rate)
	}
	if o.EBPCWeight != nil {
		t.Errorf("unset EBPCWeight should stay nil (paper series only), got %v", *o.EBPCWeight)
	}
	o = Options{Fig4Rate: Float(0), EBPCWeight: Float(0)}
	o.setDefaults()
	if *o.Fig4Rate != 0 {
		t.Errorf("explicit Fig4Rate 0 rewritten to %v", *o.Fig4Rate)
	}
	if *o.EBPCWeight != 0 {
		t.Errorf("explicit EBPCWeight 0 rewritten to %v", *o.EBPCWeight)
	}
}

// TestSweepEBPCWeightZero runs the previously unreachable r=0 sweep
// point: the EBPC series appears and coincides with pure PC (eq. 10).
func TestSweepEBPCWeightZero(t *testing.T) {
	opts := tinyOpts()
	opts.Rates = []float64{6}
	opts.EBPCWeight = Float(0)
	fig, _, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 || fig.Series[4] != "EBPC" {
		t.Fatalf("series = %v, want EBPC appended", fig.Series)
	}
	for i := range fig.Points {
		if fig.Value(i, "EBPC") != fig.Value(i, "PC") {
			t.Errorf("point %d: EBPC(r=0) %v != PC %v", i, fig.Value(i, "EBPC"), fig.Value(i, "PC"))
		}
	}
	// And without EBPCWeight the paper's four series are untouched.
	opts.EBPCWeight = nil
	fig, _, err = Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("default series = %v, want the paper's four", fig.Series)
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		ID: "t", Title: "test", XLabel: "x", YLabel: "y",
		Series: []string{"A", "B"},
		Points: []Point{
			{X: 1, Values: map[string]float64{"A": 1.5, "B": 2}},
			{X: 2.5, Values: map[string]float64{"A": 3, "B": 4}},
		},
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure t", "A", "B", "1.50", "4.00", "(y: y)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureWriteCSV(t *testing.T) {
	fig := &Figure{
		ID: "t", XLabel: "rate", Series: []string{"EB"},
		Points: []Point{{X: 3, Values: map[string]float64{"EB": 7.25}}},
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "rate,EB\n") || !strings.Contains(got, "3,7.25") {
		t.Errorf("csv = %q", got)
	}
}

func TestTrimFloat(t *testing.T) {
	for in, want := range map[float64]string{1: "1", 2.5: "2.5", 0.25: "0.25", 10: "10"} {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
