package experiments

import (
	"fmt"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	bdpsruntime "bdps/internal/runtime"
)

// Cell is one grid point of a figure: a single deterministic simulation
// of (scenario, strategy, rate) under one seed. Figure builders declare
// their whole grid as a flat []Cell and hand it to runCells, which
// executes the cells concurrently and returns results in declaration
// order — assembly never depends on completion order, so parallel
// figures are bit-identical to sequential ones.
type Cell struct {
	Scenario msg.Scenario
	Strategy core.Strategy
	Rate     float64
	Seed     uint64
}

// config materializes a cell: a copy of the options' base run with the
// fields the cell owns overwritten.
func (o *Options) config(c Cell) bdpsruntime.Config {
	cfg := o.Base
	cfg.Seed = c.Seed
	cfg.Scenario = c.Scenario
	cfg.Strategy = c.Strategy
	cfg.Params = o.Base.Params.For(c.Strategy)
	cfg.Workload.RatePerMin = c.Rate
	return cfg
}

// grid appends one cell per seed for a (scenario, strategy, rate) point,
// seeds innermost, so meanBySeed can collapse the results back into
// per-point averages.
func (o *Options) grid(cells []Cell, scenario msg.Scenario, strat core.Strategy, rate float64) []Cell {
	for _, seed := range o.Seeds {
		cells = append(cells, Cell{Scenario: scenario, Strategy: strat, Rate: rate, Seed: seed})
	}
	return cells
}

// runCells executes every cell on the options' worker pool and returns
// one result per cell, in declaration order.
func (o *Options) runCells(cells []Cell) ([]metrics.Result, error) {
	cfgs := make([]bdpsruntime.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = o.config(c)
	}
	return o.exec.runAll(cfgs)
}

// meanBySeed collapses a seed-expanded result slice (seeds innermost, as
// grid declares them) into one seed-averaged result per point. A length
// that is not a whole number of points is a cell-declaration bug;
// silently dropping the tail would render a truncated figure.
func meanBySeed(rs []metrics.Result, seeds int) []metrics.Result {
	if len(rs)%seeds != 0 {
		panic(fmt.Sprintf("experiments: %d results are not a whole number of %d-seed points", len(rs), seeds))
	}
	out := make([]metrics.Result, 0, len(rs)/seeds)
	for i := 0; i+seeds <= len(rs); i += seeds {
		out = append(out, metrics.Mean(rs[i:i+seeds]))
	}
	return out
}
