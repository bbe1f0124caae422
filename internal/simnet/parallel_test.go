package simnet

import (
	"reflect"
	"sync"
	"testing"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// TestConcurrentRunsDeterministic executes the same config from several
// goroutines at once and requires bit-identical results: the only state
// shared between concurrent runs (the entry and event sync.Pools) must
// be invisible to the simulation. Run with -race for the full audit.
func TestConcurrentRunsDeterministic(t *testing.T) {
	cfg := runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Workload: workload.Config{RatePerMin: 12, Duration: 2 * vtime.Minute},
	}
	baseline, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	results := make([]metrics.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = run(cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(baseline, results[i]) {
			t.Errorf("run %d diverged:\nbase: %+v\ngot:  %+v", i, baseline, results[i])
		}
	}
}

// TestConcurrentMixedConfigs interleaves different strategies and
// scenarios concurrently and checks each against its solo baseline —
// cross-run contamination through pooled objects would skew one of them.
func TestConcurrentMixedConfigs(t *testing.T) {
	configs := []runtime.Config{
		{Seed: 1, Scenario: msg.PSD, Strategy: core.MaxEB{},
			Workload: workload.Config{RatePerMin: 12, Duration: 2 * vtime.Minute}},
		{Seed: 2, Scenario: msg.SSD, Strategy: core.FIFO{}, Params: core.Params{PD: 2},
			Workload: workload.Config{RatePerMin: 10, Duration: 2 * vtime.Minute}},
		{Seed: 3, Scenario: msg.PSD, Strategy: core.MaxEBPC{R: 0.5},
			Workload: workload.Config{RatePerMin: 6, Duration: 2 * vtime.Minute}},
	}
	baselines := make([]metrics.Result, len(configs))
	for i, cfg := range configs {
		var err error
		if baselines[i], err = run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const rounds = 3
	fails := make(chan string, len(configs)*rounds)
	for r := 0; r < rounds; r++ {
		for i, cfg := range configs {
			wg.Add(1)
			go func(i int, cfg runtime.Config) {
				defer wg.Done()
				res, err := run(cfg)
				if err != nil {
					fails <- err.Error()
					return
				}
				if !reflect.DeepEqual(baselines[i], res) {
					fails <- res.Label + " diverged under concurrency"
				}
			}(i, cfg)
		}
	}
	wg.Wait()
	close(fails)
	for f := range fails {
		t.Error(f)
	}
}
