package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestCovariatesFromRunFiles reads canned run files as the benchmark
// writes them and prints each pair's environment, flagging the pair
// whose two runs started more than 0.5 load apart.
func TestCovariatesFromRunFiles(t *testing.T) {
	dir := t.TempDir()
	canned := func(name string, start, end, busy float64, noisy bool) *runFile {
		path := filepath.Join(dir, name)
		body := fmt.Sprintf(`{"schema": 1, "env": {"nproc": 2, "load1_start": %g, "load1_end": %g, "busy_cpus_start": %g, "noisy": %t},
 "workloads": [{"name": "chain_small", "metrics": {"p50_us": {"value": 30, "unit": "us"}}}]}`, start, end, busy, noisy)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := readRun(path)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	runs := [2][]*runFile{
		{canned("base-0.json", 0.20, 0.90, 0.10, false), canned("base-1.json", 1.30, 1.10, 0.75, true)},
		{canned("head-0.json", 0.60, 1.00, 0.05, false), canned("head-1.json", 0.70, 0.60, 0.20, false)},
	}
	covs := covariates("chain_small", runs)
	if len(covs) != 2 {
		t.Fatalf("%d covariate rows, want 2", len(covs))
	}
	if covs[0].flagged() || !covs[1].flagged() {
		t.Errorf("flags = %v, %v; want the second pair alone (load1 start 1.30 vs 0.70)", covs[0].flagged(), covs[1].flagged())
	}
	var out strings.Builder
	printCovariates(&out, covs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and two rows:\n%s", out.String())
	}
	for _, want := range []string{"0.20→ 0.90", "0.60→ 1.00", "0.10", "0.05"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("pair 1 row lacks %q:\n%s", want, lines[1])
		}
	}
	if strings.Contains(lines[1], "noisy") || strings.Contains(lines[1], "load1 start") {
		t.Errorf("pair 1 is neither noisy nor flagged:\n%s", lines[1])
	}
	for _, want := range []string{"1.30→ 1.10", "0.75 noisy", "0.70→ 0.60", "load1 start -0.60"} {
		if !strings.Contains(lines[2], want) {
			t.Errorf("pair 2 row lacks %q:\n%s", want, lines[2])
		}
	}
}

// TestAAFromRunFiles reads canned run files of one revision, ten pairs,
// and counts each metric's false claims over the 2^10 labellings of its
// pairs: none for a count that repeats or for noise inside the bound;
// for a metric whose second run read 40% higher in every pair — the box
// drifted — the ten labellings with at most one pair swapped read a
// regression and the ten with at most one left read a win, 22 in all.
func TestAAFromRunFiles(t *testing.T) {
	dir := t.TempDir()
	metrics := []metricSpec{
		{Name: "allocs_per_msg", Better: "lower", Bound: 0.1},
		{Name: "p50_us", Better: "lower", Bound: 0.25},
		{Name: "msgs_per_s", Better: "higher", Bound: 0.25},
	}
	var runs [2][]*runFile
	for i := 0; i < 10; i++ {
		for side := 0; side < 2; side++ {
			jitter := float64(i%3) - 1
			runs[side] = append(runs[side], cannedRun(t, filepath.Join(dir, fmt.Sprintf("%d-%d.json", side, i)), map[string]float64{
				"allocs_per_msg": 3.0013,
				"p50_us":         30 + jitter + float64(side),
				"msgs_per_s":     (100 + jitter) * (1 + 0.4*float64(side)),
			}))
		}
	}
	rows := workloadRows("chain_small", metrics, runs, 1, true)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for i, want := range []struct {
		verdict string
		better  int
		worse   int
		claims  int
	}{
		{level, 0, 0, 0},
		{level, 0, 10, 0},
		{win, 10, 0, 22},
	} {
		r := rows[i]
		if r.verdict != want.verdict || r.better != want.better || r.worse != want.worse ||
			r.claims != want.claims || r.labellings != 1024 {
			t.Errorf("%s: %s, %d better, %d worse, %d/%d false claims; want %s, %d, %d, %d/1024",
				r.metric.Name, r.verdict, r.better, r.worse, r.claims, r.labellings,
				want.verdict, want.better, want.worse, want.claims)
		}
	}
	var out strings.Builder
	printRows(&out, rows)
	if !strings.Contains(out.String(), "false claims") || !strings.Contains(out.String(), "22/1024 (2.1%)") {
		t.Errorf("A/A table lacks its false-claim column:\n%s", out.String())
	}
	out.Reset()
	printRows(&out, []row{classify("w", metrics[1], []pair{{1, 1}})})
	if strings.Contains(out.String(), "false claims") {
		t.Errorf("a table of two revisions has a false-claim column:\n%s", out.String())
	}
}

// cannedRun writes a chain_small run file with the given metric values
// at path, as the benchmark writes one, and reads it back.
func cannedRun(t *testing.T, path string, metrics map[string]float64) *runFile {
	t.Helper()
	var vals []string
	for name, v := range metrics {
		vals = append(vals, fmt.Sprintf("%q: {\"value\": %g}", name, v))
	}
	body := fmt.Sprintf(`{"schema": 1, "env": {"nproc": 2, "load1_start": 0.2, "load1_end": 0.3, "busy_cpus_start": 0.1, "noisy": false},
 "workloads": [{"name": "chain_small", "metrics": {%s}}]}`, strings.Join(vals, ", "))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := readRun(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestConfirmFromRunFiles reads canned run files of two revisions, two
// sets of ten pairs, as --confirm runs them: a metric both sets call a
// win is a win; one whose second set flips to a regression is
// unconfirmed; one level in both stays level. The exit code is 1 for a
// regression that a plain run or both sets call, and 0 for an
// unconfirmed one or any A/A row. Read as A/A, a metric whose second run
// read 40% higher in every pair makes 11 false wins and 11 false
// regressions among each set's 2^10 labellings (TestAAFromRunFiles), and
// the two sets agree on 11·11 + 11·11 of their 2^20.
func TestConfirmFromRunFiles(t *testing.T) {
	dir := t.TempDir()
	metrics := []metricSpec{
		{Name: "allocs_per_msg", Better: "lower", Bound: 0.1},
		{Name: "p50_us", Better: "lower", Bound: 0.25},
		{Name: "p99_us", Better: "lower", Bound: 0.25},
		{Name: "msgs_per_s", Better: "higher", Bound: 0.25},
	}
	var runs [2][]*runFile
	for i := 0; i < 20; i++ {
		jitter := float64(i%3) - 1
		flip := 1.0
		if i >= 10 {
			flip = -1 // the second set's change moves p50 the other way
		}
		for side := 0; side < 2; side++ {
			s := float64(side)
			runs[side] = append(runs[side], cannedRun(t, filepath.Join(dir, fmt.Sprintf("%d-%d.json", side, i)), map[string]float64{
				"allocs_per_msg": 3 - 2.87*s + jitter/1000,
				"p50_us":         30 + jitter - 12*s*flip,
				"p99_us":         90 + jitter,
				"msgs_per_s":     (100 + jitter) * (1 + 0.4*s),
			}))
		}
	}
	rows := workloadRows("chain_small", metrics, runs, 2, false)
	for i, want := range []struct {
		verdict string
		sets    string
	}{
		{win, "win+win"},
		{unconfirmed, "win+regression"},
		{level, "level+level"},
		{win, "win+win"},
	} {
		if r := rows[i]; r.verdict != want.verdict || strings.Join(r.sets, "+") != want.sets || r.n != 20 {
			t.Errorf("%s: %s (%s) over %d pairs, want %s (%s) over 20", r.metric.Name, r.verdict, strings.Join(r.sets, "+"), r.n, want.verdict, want.sets)
		}
	}
	var out strings.Builder
	printRows(&out, rows)
	if !strings.Contains(out.String(), "win+regression") {
		t.Errorf("the --confirm table lacks its sets column:\n%s", out.String())
	}

	// Exit codes: a plain run's regression still exits 1; an unconfirmed
	// row does not; a confirmed regression does; A/A rows never do.
	plain := workloadRows("chain_small", metrics[1:2], [2][]*runFile{runs[0][10:], runs[1][10:]}, 1, false)[0]
	if plain.verdict != regression || plain.sets != nil {
		t.Fatalf("the second set alone reads %s (sets %v), want a regression", plain.verdict, plain.sets)
	}
	for _, tc := range []struct {
		rows []row
		aa   bool
		want int
	}{
		{[]row{rows[0], plain}, false, 1},
		{rows, false, 0},
		{[]row{{verdict: regression, sets: []string{regression, regression}}}, false, 1},
		{[]row{plain}, true, 0},
	} {
		if got := exitCode(tc.rows, tc.aa); got != tc.want {
			t.Errorf("exit code %d for %v (aa %v), want %d", got, tc.rows, tc.aa, tc.want)
		}
	}

	aa := workloadRows("chain_small", metrics[3:], runs, 2, true)[0]
	if aa.claims != 242 || aa.labellings != 1<<20 {
		t.Errorf("A/A msgs_per_s: %d/%d false claims, want 242/%d", aa.claims, aa.labellings, 1<<20)
	}
}
