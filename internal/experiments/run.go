package experiments

import (
	"fmt"
	"runtime"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	bdpsruntime "bdps/internal/runtime"
	"bdps/internal/vtime"
)

// Options scales an experiment. The zero value reproduces the paper's
// full setup; tests and benchmarks shrink Base.Workload.Duration and
// Seeds.
type Options struct {
	// Seeds to average over; default {1, 2, 3}.
	Seeds []uint64
	// Rates is the publishing-rate sweep for Figures 5 and 6; default
	// {1, 3, 6, 9, 12, 15} msg/min per publisher.
	Rates []float64
	// Weights is the EBPC r sweep for Figure 4; default 0, 0.1, …, 1.
	Weights []float64
	// Fig4Rate is the fixed publishing rate of Figure 4; nil means the
	// paper's 10. Use Float to set it, explicit zero included.
	Fig4Rate *float64
	// EBPCWeight, when set, adds an "EBPC" series running with that r to
	// the Figure 5/6 rate sweeps; the paper found r ∈ (0.23, 1)
	// beneficial. nil reproduces the paper's four-series panels. The
	// endpoints are honored: Float(0) runs as pure PC and Float(1) as
	// pure EB through the run cache.
	EBPCWeight *float64
	// Base is the run every cell copies before overwriting the fields it
	// owns: a figure cell sets seed, scenario, strategy, rate and
	// params (FIFO and RL run with ε = 0, see core.Params.For); an
	// ablation sets seed, the congested PSD/EB/rate-12 point and the one
	// knob it sweeps. Everything else — the publishing window
	// (Workload.Duration, default 2 h, paper §6.1), the scheduling
	// parameters (Params, default core.DefaultParams), churn, multipath,
	// link model, TimeScale on wall-clock backends — reaches every cell
	// as set here. Tracer and Subscriptions make a cell uncacheable.
	Base bdpsruntime.Config
	// Parallelism caps concurrent simulation runs; 0 or negative means
	// runtime.GOMAXPROCS(0). 1 reproduces the sequential harness. Figure
	// output is bit-identical at every setting: cells are deterministic
	// and results are assembled by cell, never by completion order.
	Parallelism int
	// Backend selects the runtime transport cells run on; nil means the
	// discrete-event simulator. Non-deterministic backends (the live TCP
	// overlay) disable the run cache, so every cell actually executes.
	Backend bdpsruntime.Transport
	// Progress, when non-nil, receives one line per completed run. It
	// may be called from worker goroutines, but never concurrently:
	// calls are serialized by the harness. Line order under parallelism
	// follows completion order; cache hits emit nothing.
	Progress func(string)

	// exec is the shared worker pool + run cache. setDefaults installs
	// one, so every figure built from one defaulted Options value (All,
	// CheckClaims) dedupes cells against the same cache.
	exec *executor
}

// Float returns a pointer to v, for the Options fields that distinguish
// "unset" (nil) from an explicit value — Float(0) is a real zero, not a
// request for the default.
func Float(v float64) *float64 { return &v }

func (o *Options) setDefaults() {
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2, 3}
	}
	if o.Base.Workload.Duration == 0 {
		o.Base.Workload.Duration = 2 * vtime.Hour
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{1, 3, 6, 9, 12, 15}
	}
	if len(o.Weights) == 0 {
		o.Weights = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	}
	if o.Fig4Rate == nil {
		o.Fig4Rate = Float(10)
	}
	if o.Base.Params == (core.Params{}) {
		o.Base.Params = core.DefaultParams()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.exec == nil {
		o.exec = newExecutor(o.Parallelism, o.Progress, o.Backend)
	}
}

// Figure4a reproduces Figure 4(a): SSD total earning versus the EBPC
// weight r, with the flat EB and PC references.
func Figure4a(opts Options) (*Figure, error) {
	opts.setDefaults()
	return figure4(opts, msg.SSD, "4a", "total earning (k)",
		func(r metrics.Result) float64 { return r.EarningK() })
}

// Figure4b reproduces Figure 4(b): PSD delivery rate versus r.
func Figure4b(opts Options) (*Figure, error) {
	opts.setDefaults()
	return figure4(opts, msg.PSD, "4b", "delivery rate (%)",
		func(r metrics.Result) float64 { return 100 * r.DeliveryRate() })
}

// figure4Cells declares Figure 4's grid: the flat EB/PC references,
// then one EBPC cell per weight. The endpoint weights normalize onto
// the pure strategies in the run cache (eq. 10), so w = 0 and w = 1
// reuse the reference runs.
func figure4Cells(opts Options, scenario msg.Scenario) []Cell {
	var cells []Cell
	cells = opts.grid(cells, scenario, core.MaxEB{}, *opts.Fig4Rate)
	cells = opts.grid(cells, scenario, core.MaxPC{}, *opts.Fig4Rate)
	for _, w := range opts.Weights {
		cells = opts.grid(cells, scenario, core.MaxEBPC{R: w}, *opts.Fig4Rate)
	}
	return cells
}

func figure4(opts Options, scenario msg.Scenario, id, ylabel string, y func(metrics.Result) float64) (*Figure, error) {
	fig := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s: EB vs PC vs EBPC, publishing rate %.0f", scenario, *opts.Fig4Rate),
		XLabel: "weight of EB (%)",
		YLabel: ylabel,
		Series: []string{"EBPC", "EB", "PC"},
	}
	rs, err := opts.runCells(figure4Cells(opts, scenario))
	if err != nil {
		return nil, err
	}
	pts := meanBySeed(rs, len(opts.Seeds))
	ebRes, pcRes := pts[0], pts[1]
	for i, w := range opts.Weights {
		fig.Points = append(fig.Points, Point{
			X: 100 * w,
			Values: map[string]float64{
				"EBPC": y(pts[2+i]),
				"EB":   y(ebRes),
				"PC":   y(pcRes),
			},
		})
	}
	return fig, nil
}

// Figure5 reproduces Figure 5: the SSD rate sweep. It returns panel (a)
// total earning and panel (b) message number from one set of runs.
func Figure5(opts Options) (earning, traffic *Figure, err error) {
	opts.setDefaults()
	return rateSweep(opts, msg.SSD, "5a", "5b",
		"total earning (k)", func(r metrics.Result) float64 { return r.EarningK() })
}

// Figure6 reproduces Figure 6: the PSD rate sweep. It returns panel (a)
// delivery rate and panel (b) message number from one set of runs.
func Figure6(opts Options) (delivery, traffic *Figure, err error) {
	opts.setDefaults()
	return rateSweep(opts, msg.PSD, "6a", "6b",
		"delivery rate (%)", func(r metrics.Result) float64 { return 100 * r.DeliveryRate() })
}

// sweepStrategies returns the rate-sweep strategy set: the paper's four
// series, plus EBPC when Options.EBPCWeight asks for it.
func sweepStrategies(opts Options) ([]core.Strategy, []string) {
	strategies := []core.Strategy{core.MaxEB{}, core.MaxPC{}, core.FIFO{}, core.RL{}}
	names := []string{"EB", "PC", "FIFO", "RL"}
	if opts.EBPCWeight != nil {
		strategies = append(strategies, core.MaxEBPC{R: *opts.EBPCWeight})
		names = append(names, "EBPC")
	}
	return strategies, names
}

// rateSweepCells declares the Figure 5/6 grid: every strategy at every
// rate, seeds innermost.
func rateSweepCells(opts Options, scenario msg.Scenario) []Cell {
	strategies, _ := sweepStrategies(opts)
	var cells []Cell
	for _, rate := range opts.Rates {
		for _, strat := range strategies {
			cells = opts.grid(cells, scenario, strat, rate)
		}
	}
	return cells
}

func rateSweep(opts Options, scenario msg.Scenario, idA, idB, ylabelA string, yA func(metrics.Result) float64) (*Figure, *Figure, error) {
	strategies, names := sweepStrategies(opts)

	figA := &Figure{
		ID:     idA,
		Title:  fmt.Sprintf("%s: strategies vs publishing rate", scenario),
		XLabel: "publishing rate",
		YLabel: ylabelA,
		Series: names,
	}
	figB := &Figure{
		ID:     idB,
		Title:  fmt.Sprintf("%s: network traffic vs publishing rate", scenario),
		XLabel: "publishing rate",
		YLabel: "msg number (k)",
		Series: names,
	}
	rs, err := opts.runCells(rateSweepCells(opts, scenario))
	if err != nil {
		return nil, nil, err
	}
	pts := meanBySeed(rs, len(opts.Seeds))
	k := 0
	for _, rate := range opts.Rates {
		pa := Point{X: rate, Values: map[string]float64{}}
		pb := Point{X: rate, Values: map[string]float64{}}
		for i := range strategies {
			res := pts[k]
			k++
			pa.Values[names[i]] = yA(res)
			pb.Values[names[i]] = res.MessageNumberK()
		}
		figA.Points = append(figA.Points, pa)
		figB.Points = append(figB.Points, pb)
	}
	return figA, figB, nil
}

// Run dispatches a figure id ("4a", "4b", "5a", "5b", "6a", "6b", or "5"
// and "6" for both panels) to its runner.
func Run(id string, opts Options) ([]*Figure, error) {
	switch id {
	case "4a":
		f, err := Figure4a(opts)
		return []*Figure{f}, err
	case "4b":
		f, err := Figure4b(opts)
		return []*Figure{f}, err
	case "5", "5a", "5b":
		a, b, err := Figure5(opts)
		if err != nil {
			return nil, err
		}
		switch id {
		case "5a":
			return []*Figure{a}, nil
		case "5b":
			return []*Figure{b}, nil
		}
		return []*Figure{a, b}, nil
	case "6", "6a", "6b":
		a, b, err := Figure6(opts)
		if err != nil {
			return nil, err
		}
		switch id {
		case "6a":
			return []*Figure{a}, nil
		case "6b":
			return []*Figure{b}, nil
		}
		return []*Figure{a, b}, nil
	}
	return nil, fmt.Errorf("experiments: unknown figure %q (want 4a, 4b, 5, 5a, 5b, 6, 6a, 6b)", id)
}

// All runs every figure of the paper's evaluation. The union of every
// figure's cells runs as one worker-pool batch — no barrier between
// figures, so the pool never idles on one sweep's straggler cell while
// another sweep still has work — and cells duplicated across panels and
// figures execute once. The builders then assemble from the warm cache.
func All(opts Options) ([]*Figure, error) {
	opts.setDefaults()
	var cells []Cell
	for _, sc := range []msg.Scenario{msg.SSD, msg.PSD} {
		cells = append(cells, figure4Cells(opts, sc)...)
	}
	for _, sc := range []msg.Scenario{msg.SSD, msg.PSD} {
		cells = append(cells, rateSweepCells(opts, sc)...)
	}
	if _, err := opts.runCells(cells); err != nil {
		return nil, err
	}
	var out []*Figure
	for _, id := range []string{"4a", "4b", "5", "6"} {
		figs, err := Run(id, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, figs...)
	}
	return out, nil
}
