// Command bench is the repository's benchmark: four workloads, eight
// end-to-end metrics, and a traced run that yields the per-layer
// numbers. See README.md.
//
//	bench -workload all -seed 1 -out bench/out/run.json
//	bench -workload chain_small -seed 3 -seconds 20 -trace 1
//	bench compare A.json B.json
//	bench spec      # BENCHMARK.json, generated from spec.go
//	bench golden    # golden/sim_paper.seed1.json, regenerated
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runFile is the result file: environment, settings, one entry per
// workload, and — last — the claim (this benchmark makes none).
type runFile struct {
	Schema    int         `json:"schema"`
	Env       envInfo     `json:"env"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Workloads []*wlResult `json:"workloads"`
	Claim     *string     `json:"claim"`
}

var runners = map[string]func(runCfg) (*wlResult, error){
	"chain_small":  func(rc runCfg) (*wlResult, error) { return runLive(chainSmallInputs(rc.seed), rc) },
	"fanout_match": func(rc runCfg) (*wlResult, error) { return runLive(fanoutMatchInputs(rc.seed), rc) },
	"mesh_paced":   runMeshPaced,
	"sim_paper":    runSimPaper,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spec":
			os.Stdout.Write(benchmarkJSON())
			return
		case "golden":
			out, err := goldenJSON()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(out)
			return
		}
	}
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one workload measures")
		traceOn  = flag.Int("trace", 0, "1 = the traced run (per-layer metrics, spans to <out dir>/<workload>.trace.jsonl)")
		out      = flag.String("out", "bench/out/run.json", "result file")
		smoke    = flag.Bool("smoke", false, "harness self-test: every workload cut to about a second")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var names []string
	for _, w := range workloadSpecs {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	rc := runCfg{seed: *seed, seconds: *seconds, trace: *traceOn == 1, smoke: *smoke, outDir: filepath.Dir(*out)}
	if rc.smoke {
		rc.seconds = min(rc.seconds, 1)
	}
	file, err := runAll(names, rc)
	if err != nil {
		fatal(err)
	}
	if err := writeRunFile(*out, file); err != nil {
		fatal(err)
	}
	for _, w := range file.Workloads {
		printWorkload(w, rc.trace)
	}
	fmt.Println(string(driverLine(file)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func runAll(names []string, rc runCfg) (*runFile, error) {
	runtime.GOMAXPROCS(benchProcs)
	rc.pin = newPinner()
	rc.pin.move()
	file := &runFile{Schema: 1, Env: readEnv(), Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace}
	file.Env.PinCPUs = rc.pin.cpus
	for _, name := range names {
		t0 := time.Now()
		res, err := runners[name](rc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.WallS = time.Since(t0).Seconds()
		file.Workloads = append(file.Workloads, res)
	}
	file.Env.LoadEnd = load1()
	return file, nil
}

func writeRunFile(path string, file *runFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metricOrder is the reporting order of a run: the spec's.
func metricOrder(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printWorkload(w *wlResult, traced bool) {
	fmt.Printf("== %s  ops=%d failed=%d  (%.1f s)\n", w.Name, w.Ops, w.Failed, w.WallS)
	na := map[string]bool{}
	for _, n := range w.NA {
		na[n] = true
	}
	for _, m := range metricOrder(traced) {
		s, ok := w.Metrics[m.Name]
		switch {
		case !ok:
			continue
		case na[m.Name]:
			fmt.Printf("  %-30s %14s %-8s\n", m.Name, "n/a", m.Unit)
		case s.N > 1:
			fmt.Printf("  %-30s %14.6g %-8s  median of %d pieces %.6g\n", m.Name, s.Value, s.Unit, s.N, median(s.Samples))
		default:
			fmt.Printf("  %-30s %14.6g %-8s\n", m.Name, s.Value, s.Unit)
		}
	}
	for _, n := range w.Notes {
		fmt.Println("  note:", n)
	}
}

// driverLine is the last line of standard output: one JSON object with
// exactly the keys correct, attempted, failed and metrics. A run of
// several workloads sums the counts and prefixes metric names.
func driverLine(file *runFile) []byte {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Metrics: map[string]val{}}
	for _, w := range file.Workloads {
		line.Attempted += w.Ops
		line.Failed += w.Failed
		names := make([]string, 0, len(w.Metrics))
		for n := range w.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			key := n
			if len(file.Workloads) > 1 {
				key = w.Name + "/" + n
			}
			line.Metrics[key] = val{w.Metrics[n].Value, w.Metrics[n].Unit}
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	return b
}
