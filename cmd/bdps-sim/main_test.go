package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunMatchesGolden runs the command in-process and compares its
// report with the saved output: a figure, whose cells copy the flags'
// base run, and a FIFO single run, which must run with ε = 0 (no
// hopeless drops) under churn, with a timeline.
func TestRunMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"figure4a.golden", []string{"-figure", "4a", "-duration", "4m", "-seeds", "1", "-weights", "0,0.5,1", "-parallel", "2"}},
		{"single_fifo.golden", []string{"-single", "-strategy", "fifo", "-rate", "12", "-duration", "5m", "-seed", "3", "-churn", "20", "-timeline", "1m"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output differs from testdata/%s:\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestRunNeedsAMode: with no mode flag the command refuses to run.
func TestRunNeedsAMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no mode flag: want an error")
	}
}
