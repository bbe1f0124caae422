package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// compare applies the bounds of spec.go to two sets of result files:
//
//	bench compare A.json B.json
//	bench compare A1.json,A2.json,A3.json B1.json,B2.json,B3.json
//
// One row per (workload, end-to-end metric): baseline value and
// quartiles, candidate value, delta (positive = worse), bound, verdict.
// With several files per side a side's value is the median of its runs'
// values and its spread their interquartile distance (the driver's
// rule); one file per side has no spread, so no row can be "unresolved".
// It exits 1 when any row is "worse".

func loadRuns(arg string) ([]*runFile, error) {
	var runs []*runFile
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, &f)
	}
	return runs, nil
}

// estimateFor summarizes one metric of one workload on one side: the
// median of the runs' values and their quartiles.
func estimateFor(runs []*runFile, workload, metric string) (e estimate, noisy, ok bool) {
	var values []float64
	for _, f := range runs {
		for _, w := range f.Workloads {
			if s, found := w.Metrics[metric]; found && w.Name == workload {
				values = append(values, s.Value)
				noisy = noisy || f.Env.Noisy
			}
		}
	}
	if len(values) == 0 {
		return e, false, false
	}
	return estimateOf(median(values), values), noisy, true
}

type compareRow struct {
	workload   string
	metric     metricSpec
	base, cand estimate
	delta      float64
	verdict    string
}

func compareRuns(a, b []*runFile) []compareRow {
	var rows []compareRow
	for _, w := range workloadSpecs {
		for _, m := range endToEnd {
			base, noisyA, okA := estimateFor(a, w.Name, m.Name)
			cand, noisyB, okB := estimateFor(b, w.Name, m.Name)
			if !okA || !okB {
				continue
			}
			row := compareRow{workload: w.Name, metric: m, base: base, cand: cand}
			row.delta, row.verdict = judge(m, base, cand)
			if row.verdict == verdictOK && (noisyA || noisyB) {
				// A run started on a loaded box cannot vouch for "unchanged".
				row.verdict = verdictUnresolved
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json[,A2.json…] B.json[,B2.json…]")
		return 2
	}
	var sides [2][]*runFile
	for i, arg := range args {
		runs, err := loadRuns(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		sides[i] = runs
	}
	fmt.Printf("%-13s %-15s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "A", "A q1", "A q3", "B", "delta", "bound", "verdict")
	worse := 0
	for _, r := range compareRuns(sides[0], sides[1]) {
		fmt.Printf("%-13s %-15s %12.6g %12.6g %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric.Name, r.base.value, r.base.q1, r.base.q3, r.cand.value,
			100*r.delta, 100*r.metric.Bound, r.verdict)
		if r.verdict == verdictWorse {
			worse++
		}
	}
	if worse > 0 {
		fmt.Printf("%d row(s) worse than the bound\n", worse)
		return 1
	}
	return 0
}
