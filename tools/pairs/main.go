// Command pairs classifies a change against a base revision on the
// repository benchmark, in alternating pairs:
//
//	go run ./tools/pairs --base <rev> [--workloads a,b] [--n 10] [--seed S] [--seconds T] [--confirm] [--aa]
//
// It checks out the base revision and HEAD into temporary git worktrees,
// runs each side through that side's own bench/run.sh — n pairs per
// workload, alternating which side runs first — and hands the run files
// to HEAD's `bench compare A1,…,An B1,…,Bn`, which applies the bounds.
// Then it prints, per workload and end-to-end metric of BENCHMARK.json:
// both sides' medians, the change of the median, how many pairs moved
// each way, the base's interquartile range against the metric's bound,
// and a verdict (see classify). Above that table it prints each pair's
// covariates, read from the two run files: the 1-minute load average at
// the start and end of each run, the CPUs busy when it started and its
// noisy stamp; a pair whose two runs started more than 0.5 load apart
// is flagged. It exits 1 when a verdict is "regression", 2 when the
// measurement itself failed.
//
// With --confirm it runs two independent sets of n pairs back to back
// and classifies each set alone: a win or a regression counts only when
// both sets call it, a call that one set makes and the other does not
// reads "unconfirmed", and the row's medians and counts are those of all
// 2n pairs. A verdict of one n-pair set can be a run of luck on a noisy
// box; two that agree are much less likely to be.
//
// With --aa it measures one revision (--base, HEAD by default) against
// itself, from one worktree: what the rule calls with no code change.
// Under A/A a pair's two runs are interchangeable, so every one of the
// 2^n ways of labelling each pair's runs base and head is as likely as
// the one run; the table's last column is how many of them the verdict
// rule calls a win or a regression — the false-claim rate of that metric
// at n pairs, on this box and in this session. With --confirm as well it
// counts the labellings of both sets that the two sets call alike.
//
// HEAD means the committed tree: commit the change before measuring it.
// The worktrees (and their build caches) live under the system temporary
// directory ($TMPDIR) and are removed on exit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchSpec is the part of BENCHMARK.json pairs reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// runFile is the part of a bench result file pairs reads.
type runFile struct {
	Env       runEnv `json:"env"`
	Workloads []struct {
		Name    string `json:"name"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// runEnv is the environment stamp of a run file: the box's state around
// the run, not the program's.
type runEnv struct {
	LoadStart float64 `json:"load1_start"`
	LoadEnd   float64 `json:"load1_end"`
	BusyStart float64 `json:"busy_cpus_start"`
	Noisy     bool    `json:"noisy"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "the revision to measure HEAD against (required)")
	workloads := fs.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	n := fs.Int("n", 10, "pairs per workload")
	seed := fs.Uint64("seed", 1, "the benchmark's input seed")
	seconds := fs.Float64("seconds", 0, "seconds one workload run measures (default: BENCHMARK.json's run_seconds)")
	aa := fs.Bool("aa", false, fmt.Sprintf("measure --base (default HEAD) against itself and count the false claims (n ≤ %d)", maxAAPairs))
	confirm := fs.Bool("confirm", false, "run two sets of n pairs back to back; a win or a regression needs both")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aa && *base == "" {
		*base = "HEAD"
	}
	if *base == "" || *n < 1 || *aa && *n > maxAAPairs || *seconds < 0 || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	sets := 1
	if *confirm {
		sets = 2
	}
	rows, err := measure(*base, *aa, sets, *workloads, *n, *seed, *seconds, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pairs:", err)
		return 2
	}
	printRows(stdout, rows)
	return exitCode(rows, *aa)
}

// exitCode is 1 when a row of two revisions reads a regression (with
// --confirm, a confirmed one), else 0.
func exitCode(rows []row, aa bool) int {
	for _, r := range rows {
		if r.verdict == regression && !aa {
			return 1
		}
	}
	return 0
}

// measure runs sets of n pairs, one set after the other, prints the
// covariates of every pair and returns one row per workload and metric.
// With aa, both sides run the base revision's one worktree.
func measure(base string, aa bool, sets int, workloads string, n int, seed uint64, seconds float64, stdout, stderr io.Writer) ([]row, error) {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	baseRev, err := git(root, "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return nil, err
	}
	headRev := baseRev
	if !aa {
		if headRev, err = git(root, "rev-parse", "--verify", "HEAD^{commit}"); err != nil {
			return nil, err
		}
	}
	tmp, err := os.MkdirTemp("", "pairs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	sides := [2]string{filepath.Join(tmp, "base"), filepath.Join(tmp, "head")}
	revs, checkouts := [2]string{baseRev, headRev}, 2
	if aa {
		sides[1], checkouts = sides[0], 1 // one worktree serves both sides
	}
	for i, rev := range revs[:checkouts] {
		if _, err := git(root, "worktree", "add", "--detach", sides[i], rev); err != nil {
			return nil, err
		}
		defer git(root, "worktree", "remove", "--force", sides[i])
	}
	fmt.Fprintf(stderr, "pairs: base %.12s, head %.12s\n", baseRev, headRev)

	specJSON, err := os.ReadFile(filepath.Join(sides[1], "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	if seconds == 0 {
		seconds = spec.RunSeconds
	}

	runsDir := filepath.Join(tmp, "runs")
	if err := os.Mkdir(runsDir, 0o755); err != nil {
		return nil, err
	}
	// files[w][side] lists the run files, pair by pair.
	files := make(map[string]*[2][]string)
	for _, w := range names {
		files[w] = new([2][]string)
	}
	for i := 0; i < sets*n; i++ {
		for _, w := range names {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				out := filepath.Join(runsDir, fmt.Sprintf("%s-%s-%d.json", [2]string{"base", "head"}[s], w, i))
				fmt.Fprintf(stderr, "pairs: pair %d/%d %s %s\n", i+1, sets*n, w, [2]string{"base", "head"}[s])
				if err := benchRun(sides[s], w, seed, seconds, out); err != nil {
					return nil, err
				}
				files[w][s] = append(files[w][s], out)
			}
		}
	}

	var all [2][]string
	for _, w := range names {
		for s := range all {
			all[s] = append(all[s], files[w][s]...)
		}
	}
	cmp := exec.Command(filepath.Join(sides[1], ".bench_build", "bdps-bench"), "compare",
		strings.Join(all[0], ","), strings.Join(all[1], ","))
	cmp.Stdout, cmp.Stderr = stdout, stderr
	var exit *exec.ExitError
	if err := cmp.Run(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, fmt.Errorf("bench compare: %w", err) // 1 is "a row is worse"
	}
	fmt.Fprintln(stdout)

	var rows []row
	var covs []covariate
	for _, w := range names {
		runs := [2][]*runFile{}
		for s := range runs {
			for _, path := range files[w][s] {
				f, err := readRun(path)
				if err != nil {
					return nil, err
				}
				runs[s] = append(runs[s], f)
			}
		}
		covs = append(covs, covariates(w, runs)...)
		rows = append(rows, workloadRows(w, spec.EndToEnd, runs, sets, aa)...)
	}
	printCovariates(stdout, covs)
	fmt.Fprintln(stdout)
	return rows, nil
}

// workloadRows classifies one workload's pairs, metric by metric;
// runs[side] holds that side's run files pair by pair, sets equal sets
// of them one after the other. With two sets a row's verdict is the two
// sets' confirmed verdict. With aa each row also counts its false claims
// (see relabelClaims).
func workloadRows(workload string, metrics []metricSpec, runs [2][]*runFile, sets int, aa bool) []row {
	var rows []row
	for _, m := range metrics {
		var pairs []pair
		for i := range runs[0] {
			a, okA := value(runs[0][i], workload, m.Name)
			b, okB := value(runs[1][i], workload, m.Name)
			if okA && okB {
				pairs = append(pairs, pair{a, b})
			}
		}
		if len(pairs) == 0 {
			continue
		}
		r := classify(workload, m, pairs)
		// A false claim under A/A is a labelling that every set calls a
		// win, or every set a regression; the sets' labellings are
		// independent.
		per, wins, regressions := len(pairs)/sets, 1, 1
		if aa {
			r.labellings = 1
		}
		for i := 0; i < sets; i++ {
			set := pairs[i*per : (i+1)*per]
			if sets > 1 {
				r.sets = append(r.sets, classify(workload, m, set).verdict)
			}
			if aa {
				w, g, l := relabelClaims(workload, m, set)
				wins, regressions, r.labellings = wins*w, regressions*g, r.labellings*l
			}
		}
		if aa {
			r.claims = wins + regressions
		}
		if sets == 2 {
			r.verdict = confirmed(r.sets[0], r.sets[1])
		}
		rows = append(rows, r)
	}
	return rows
}

// confirmed is the verdict of two independent sets of pairs: a win or a
// regression that both call, unconfirmed when only one calls it or they
// call opposite ones, else level when both are level and unresolved
// otherwise.
func confirmed(v1, v2 string) string {
	switch {
	case v1 == v2:
		return v1
	case v1 == win || v1 == regression || v2 == win || v2 == regression:
		return unconfirmed
	}
	return unresolved
}

// maxAAPairs bounds n under --aa: relabelClaims classifies all 2^n
// labellings.
const maxAAPairs = 16

// relabelClaims classifies every labelling of the pairs' runs — each
// pair's two values as run or swapped — and counts those the verdict
// rule calls a win and those it calls a regression. For runs of one
// revision these are the false claims among equally likely outcomes.
func relabelClaims(workload string, m metricSpec, pairs []pair) (wins, regressions, labellings int) {
	swapped := make([]pair, len(pairs))
	labellings = 1 << len(pairs)
	for mask := 0; mask < labellings; mask++ {
		for i, p := range pairs {
			if mask>>i&1 == 1 {
				p.a, p.b = p.b, p.a
			}
			swapped[i] = p
		}
		switch classify(workload, m, swapped).verdict {
		case win:
			wins++
		case regression:
			regressions++
		}
	}
	return wins, regressions, labellings
}

// benchRun runs one workload through a checkout's own bench/run.sh and
// keeps its result file at out.
func benchRun(dir, workload string, seed uint64, seconds float64, out string) error {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	if output, err := cmd.CombinedOutput(); err != nil {
		lines := strings.Split(strings.TrimSpace(string(output)), "\n")
		return fmt.Errorf("%s in %s: %w; its output ends:\n%s",
			workload, dir, err, strings.Join(lines[max(0, len(lines)-20):], "\n"))
	}
	result, err := os.ReadFile(filepath.Join(dir, "bench", "out", "run.json"))
	if err != nil {
		return err
	}
	return os.WriteFile(out, result, 0o644)
}

func readRun(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func value(f *runFile, workload, metric string) (float64, bool) {
	for _, w := range f.Workloads {
		if w.Name == workload {
			s, ok := w.Metrics[metric]
			return s.Value, ok
		}
	}
	return 0, false
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(string(exit.Stderr)))
		}
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// Verdicts.
const (
	win         = "win"
	level       = "level"
	regression  = "regression"
	unresolved  = "unresolved"
	unconfirmed = "unconfirmed"
)

// pair is one metric's value on the base (a) and the change (b) in one
// pair of runs.
type pair struct{ a, b float64 }

// row is one workload × metric line of the report.
type row struct {
	workload       string
	metric         metricSpec
	baseMed        float64
	baseQ1, baseQ3 float64
	headMed        float64
	n              int
	better, worse  int // pairs in which the change moved each way
	verdict        string
	// sets holds each set's own verdict under --confirm, else nil.
	sets []string
	// claims of labellings are the false claims an A/A row counts
	// (relabelClaims); labellings is 0 on a row of two revisions.
	claims, labellings int
}

// classify applies the rule a claim is judged by. A win (or a
// regression) needs at least ten pairs, at least nine in ten of them
// moved in that direction (ties count for neither), and the medians
// apart by more than the base's interquartile range; a regression must
// also be worse than the metric's bound, since a change within it is
// what the benchmark accepts. Anything else is at most level — the
// change's median no worse than the bound, the base's spread within it —
// or unresolved, which more pairs may settle.
func classify(workload string, m metricSpec, pairs []pair) row {
	r := row{workload: workload, metric: m, n: len(pairs)}
	var as, bs []float64
	for _, p := range pairs {
		as, bs = append(as, p.a), append(bs, p.b)
		switch {
		case p.b == p.a:
		case (p.b < p.a) == (m.Better == "lower"):
			r.better++
		default:
			r.worse++
		}
	}
	r.baseQ1, r.baseMed, r.baseQ3 = quartiles(as)
	r.headMed = median(bs)

	improved := (r.headMed < r.baseMed) == (m.Better == "lower")
	apart := math.Abs(r.headMed-r.baseMed) > r.baseQ3-r.baseQ1 && r.headMed != r.baseMed
	switch {
	case r.n >= 10 && 10*r.better >= 9*r.n && apart && improved:
		r.verdict = win
	case r.n >= 10 && 10*r.worse >= 9*r.n && apart && !improved && r.worseBy() > m.Bound:
		r.verdict = regression
	case r.baseMed == 0:
		r.verdict = unresolved
		if r.headMed == 0 && r.baseQ3 == r.baseQ1 {
			r.verdict = level
		}
	case r.worseBy() <= m.Bound && r.spread() <= m.Bound:
		r.verdict = level
	default:
		r.verdict = unresolved
	}
	return r
}

// delta is the change of the median, a share of the base's.
func (r row) delta() float64 {
	if r.baseMed == 0 {
		return 0
	}
	return (r.headMed - r.baseMed) / math.Abs(r.baseMed)
}

// worseBy is delta signed so that positive is worse.
func (r row) worseBy() float64 {
	if r.metric.Better == "higher" {
		return -r.delta()
	}
	return r.delta()
}

// spread is the base's interquartile range, a share of its median.
func (r row) spread() float64 {
	if r.baseMed == 0 {
		return 0
	}
	return math.Abs((r.baseQ3 - r.baseQ1) / r.baseMed)
}

func printRows(w io.Writer, rows []row) {
	aa := len(rows) > 0 && rows[0].labellings > 0
	confirm := len(rows) > 0 && rows[0].sets != nil
	head := fmt.Sprintf("%-13s %-15s %12s %12s %8s %7s %7s %9s %6s  %-11s",
		"workload", "metric", "base", "head", "delta", "better", "worse", "base IQR", "bound", "verdict")
	if confirm {
		head += fmt.Sprintf("  %-23s", "sets")
	}
	if aa {
		head += "  false claims"
	}
	fmt.Fprintln(w, strings.TrimRight(head, " "))
	for _, r := range rows {
		line := fmt.Sprintf("%-13s %-15s %12.6g %12.6g %+7.1f%% %7s %7s %8.1f%% %5.0f%%  %-11s",
			r.workload, r.metric.Name, r.baseMed, r.headMed, 100*r.delta(),
			fmt.Sprintf("%d/%d", r.better, r.n), fmt.Sprintf("%d/%d", r.worse, r.n),
			100*r.spread(), 100*r.metric.Bound, r.verdict)
		if confirm {
			line += fmt.Sprintf("  %-23s", strings.Join(r.sets, "+"))
		}
		if aa {
			line += fmt.Sprintf("  %d/%d (%.1f%%)", r.claims, r.labellings, 100*float64(r.claims)/float64(r.labellings))
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// loadApart is the difference of two runs' starting 1-minute load
// averages beyond which a pair is flagged: its two sides ran on
// differently loaded boxes.
const loadApart = 0.5

// covariate is one pair's environment, both sides.
type covariate struct {
	workload string
	pair     int // 1-based
	env      [2]runEnv
}

// flagged reports whether the pair's two runs started too far apart in
// load to compare as like for like.
func (c covariate) flagged() bool {
	return math.Abs(c.env[0].LoadStart-c.env[1].LoadStart) > loadApart
}

// covariates lists one workload's pairs' environments; runs[side] holds
// that side's run files pair by pair.
func covariates(workload string, runs [2][]*runFile) []covariate {
	var out []covariate
	for i := range runs[0] {
		if i >= len(runs[1]) {
			break
		}
		out = append(out, covariate{workload, i + 1, [2]runEnv{runs[0][i].Env, runs[1][i].Env}})
	}
	return out
}

func printCovariates(w io.Writer, covs []covariate) {
	fmt.Fprintf(w, "%-13s %4s  %-27s  %-27s  %s\n", "workload", "pair",
		"base load1 start→end busy", "head load1 start→end busy", "flag")
	side := func(e runEnv) string {
		s := fmt.Sprintf("%5.2f→%5.2f %5.2f", e.LoadStart, e.LoadEnd, e.BusyStart)
		if e.Noisy {
			s += " noisy"
		}
		return s
	}
	for _, c := range covs {
		flag := ""
		if c.flagged() {
			flag = fmt.Sprintf("load1 start %+.2f", c.env[1].LoadStart-c.env[0].LoadStart)
		}
		fmt.Fprintf(w, "%-13s %4d  %-27s  %-27s  %s\n", c.workload, c.pair, side(c.env[0]), side(c.env[1]), flag)
	}
}

// quartiles returns the first, second and third quartiles of xs, by the
// rule bench/ uses (Python's statistics.quantiles, exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
