package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartile rule must be the driver's: Python's
// statistics.quantiles(xs, n=4), exclusive method.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 4}, [3]float64{1, 2, 4}},
		{[]float64{1, 2, 4, 8, 16, 3, 7, 9, 11, 20}, [3]float64{2.75, 7.5, 12.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // two points extrapolate, in Python too
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.99, 49.6}, {1, 50}, {0.25, 20}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || percentile([]float64{3}, 0.99) != 3 {
		t.Error("percentile of empty/single slice")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
}

// A stream is scored on the calmest twentieth of its windows, best first
// by the metric's direction; repeated work on its fastest repetition.
func TestCalmestAndFastest(t *testing.T) {
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = float64((i*7)%80 + 1) // 1..80 in scrambled order
	}
	id := func(x *float64) float64 { return *x }
	if got := calmest(xs, calmShare, lower, id); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("calmest(lower) = %v, want 1 2 3 4", got)
	}
	if got := calmest(xs, calmShare, higher, id); len(got) != 4 || got[0] != 80 || got[3] != 77 {
		t.Errorf("calmest(higher) = %v, want 80 79 78 77", got)
	}
	if got := calmest(xs[:3], calmShare, lower, id); len(got) != 1 {
		t.Errorf("calmest of three = %v, want one", got)
	}
	if fastest([]float64{3, 1, 2}) != 1 || fastest(nil) != 0 {
		t.Error("fastest")
	}
}

// A closed-loop segment is cut into windows at the sender's marks.
func TestSegmentWindows(t *testing.T) {
	seg := segment{
		n:       6,
		marks:   []mark{{0, 0}, {2, 1000}, {2, 2000}, {5, 3000}},
		byOrder: []float64{30, 10, 50, -1, 20, 99},
	}
	ws := seg.windows()
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2 (an empty slice is skipped, the tail after the last mark left out)", len(ws))
	}
	if w := ws[0]; len(w.latUs) != 2 || w.wall != 1000 || w.p(0.5) != 20 {
		t.Errorf("window 0 = %+v", w)
	}
	if w := ws[1]; len(w.latUs) != 2 || w.latUs[0] != 20 || w.wall != 1000 {
		t.Errorf("window 1 = %+v (the lost publication has no latency)", w)
	}
}

func TestJudge(t *testing.T) {
	lat := metricSpec{Name: "p50_us", Better: lower, Bound: 0.10}
	thr := metricSpec{Name: "msgs_per_s", Better: higher, Bound: 0.10}
	tight := func(c float64) estimate { return estimateOf(c, []float64{c * 0.99, c, c * 1.01}) }
	wide := estimateOf(100, []float64{80, 100, 125})
	for _, c := range []struct {
		name       string
		m          metricSpec
		base, cand estimate
		verdict    string
		deltaSign  float64
	}{
		{"latency up 20% is worse", lat, tight(100), tight(120), verdictWorse, +1},
		{"latency up 5% is ok", lat, tight(100), tight(105), verdictOK, +1},
		{"latency down is ok", lat, tight(100), tight(50), verdictOK, -1},
		{"throughput down 20% is worse", thr, tight(100), tight(80), verdictWorse, +1},
		{"throughput up is ok", thr, tight(100), tight(150), verdictOK, -1},
		{"spread wider than the bound is unresolved", lat, wide, tight(101), verdictUnresolved, +1},
		{"worse wins over unresolved", lat, wide, tight(150), verdictWorse, +1},
	} {
		delta, verdict := judge(c.m, c.base, c.cand)
		if verdict != c.verdict || delta*c.deltaSign < 0 {
			t.Errorf("%s: delta %+.3f verdict %s, want %s", c.name, delta, verdict, c.verdict)
		}
	}
}

// BENCHMARK.json is generated from spec.go; this fails when they drift.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate with `go run . spec > ../BENCHMARK.json`")
	}
}

// The contract's limits on the spec itself.
func TestSpecWithinContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if n == "" || len(n) > 64 || seen[n] {
			t.Errorf("name %q empty, too long or used twice", n)
		}
		seen[n] = true
	}
	if len(workloadSpecs) < 2 || len(workloadSpecs) > 8 {
		t.Error("2 to 8 workloads")
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("%s has no runner", w.Name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Error("1 to 128 per-layer metrics")
	}
	for _, m := range perLayer {
		name(m.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Error("run_seconds outside 1..60")
	}
}

// Same seed → byte-identical inputs; another seed → different ones.
func TestInputsDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) []byte{
		"chain_small":  func(s uint64) []byte { return chainSmallInputs(s).bytes() },
		"fanout_match": func(s uint64) []byte { return fanoutMatchInputs(s).bytes() },
		"mesh_paced":   func(s uint64) []byte { return meshPacedInputs(s, runSeconds).bytes() },
		"sim_paper":    func(s uint64) []byte { return simPaperInputs(s, 60, false).bytes() },
	}
	for name, gen := range gens {
		if !bytes.Equal(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 gave two different inputs", name)
		}
		if bytes.Equal(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

// The reference match counts of fanout_match must agree with the
// system's own filters (a check of the benchmark's arithmetic, made once
// here instead of on every publication).
func TestFanoutReferenceAgreesWithFilters(t *testing.T) {
	in := fanoutMatchInputs(3)
	filters := make([]*filter.Filter, len(in.Subs))
	for i, s := range in.Subs {
		filters[i] = s.build().Filter
	}
	var total int
	for _, p := range in.Pool[:64] {
		attrs := msg.NumAttrs(map[string]float64{"A1": p.A1, "A2": p.A2})
		n := 0
		for _, f := range filters {
			if f.Match(&attrs) {
				n++
			}
		}
		if n != p.Expected {
			t.Fatalf("pool message (%v, %v): reference says %d, the filters match %d", p.A1, p.A2, p.Expected, n)
		}
		total += n
	}
	if mean := float64(total) / 64; mean < 10 || mean > 30 {
		t.Errorf("mean matches per message %.1f, want about 20", mean)
	}
	for _, c := range in.Churn {
		for _, p := range in.Pool[:64] {
			if c.matches(p.A1, p.A2) {
				t.Fatal("a churn subscription matches a publication")
			}
		}
	}
}

// sim_paper drains the engine a step of virtual time at a time; the
// ledger must be the one runtime.Run's single Drain gives.
func TestSteppedDrainMatchesRun(t *testing.T) {
	in := simPaperInputs(5, 10, true)
	w, err := newPaperWorld(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range in.Cells {
		cfg, err := w.config(c)
		if err != nil {
			t.Fatal(err)
		}
		stepped, err := runSimCell(cfg, false, false, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := runtime.Run(cfg, simnet.Transport{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := countsOf(c, stepped.res), countsOf(c, whole); got != want {
			t.Errorf("%s: stepped %+v, runtime.Run %+v", c.label(), got, want)
		}
		if len(stepped.pieces) < 12 { // plan, feed, ten emulated minutes and the drain tail, result
			t.Errorf("%s: %d timed pieces", c.label(), len(stepped.pieces))
		}
	}
}

// Every workload, cut to about a second, on a seed with no golden: the
// invariants must hold, every end-to-end metric must be reported and
// non-zero, and the lot must finish in under ten seconds.
func TestSmokePass(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live clusters")
	}
	dir := t.TempDir()
	rc := runCfg{seed: 2, seconds: 1, smoke: true, outDir: dir}
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	t0 := time.Now()
	file, err := runAll(names, rc)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("smoke pass took %v, want < 10 s", d)
	}
	for _, w := range file.Workloads {
		if w.Failed != 0 || w.Ops == 0 {
			t.Errorf("%s: ops %d failed %d: %v", w.Name, w.Ops, w.Failed, w.Notes)
		}
		for _, m := range endToEnd {
			if s, ok := w.Metrics[m.Name]; !ok || s.Value <= 0 || s.Unit != m.Unit {
				t.Errorf("%s: %s = %+v", w.Name, m.Name, s)
			}
		}
	}
	if err := writeRunFile(filepath.Join(dir, "run.json"), file); err != nil {
		t.Fatal(err)
	}
	runs, err := loadRuns(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range compareRuns(runs, runs) {
		if r.verdict == verdictWorse || r.delta != 0 {
			t.Errorf("a run compared with itself: %s %s delta %v %s", r.workload, r.metric.Name, r.delta, r.verdict)
		}
	}
	line := driverLine(&runFile{Workloads: file.Workloads[:1]})
	if !bytes.HasPrefix(line, []byte(`{"correct":true,"attempted":`)) {
		t.Errorf("driver line: %s", line)
	}
}

// The traced run reports every per-layer metric and writes its spans.
func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live clusters")
	}
	dir := t.TempDir()
	res, err := runners["chain_small"](runCfg{seed: 2, seconds: 1, smoke: true, trace: true, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("failed %d: %v", res.Failed, res.Notes)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	// The decomposition closes by construction.
	v := func(n string) float64 { return res.Metrics[n].Value }
	sum := v("trace.gen_wait_us") + v("livenet.publish_call_ns")/1e3 + v("trace.hop_replay_us") + v("livenet.unaccounted_us")
	if !near(sum, v("trace.e2e_p50_us")) {
		t.Errorf("gen.wait + publish_call + hop replay + unaccounted = %v, e2e p50 = %v", sum, v("trace.e2e_p50_us"))
	}
	if st, err := os.Stat(filepath.Join(dir, "chain_small.trace.jsonl")); err != nil || st.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
