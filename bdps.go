// Package bdps is a bounded-delay publish/subscribe system: a Go
// reproduction of "Achieving Bounded Delay on Message Delivery in
// Publish/Subscribe Systems" (Wang, Cao, Li, Wu — ICPP 2006).
//
// The package is the public facade over the internal building blocks:
//
//   - probabilistic message scheduling (EB, PC, EBPC from §5 of the
//     paper, plus the FIFO and RL baselines) over per-link output queues;
//   - a content-based broker overlay with single- and multi-path routing
//     and per-(ingress, subscriber) residual-path delay statistics;
//   - a deterministic discrete-event simulator reproducing the paper's
//     evaluation (Figures 4–6), exposed through RunSim and RunFigure;
//   - a live runtime (package bdps/internal/livenet, surfaced through
//     the bdps-broker / bdps-pub / bdps-sub commands) that drives the
//     same scheduler over real TCP connections.
//
// # Quick start
//
// Run one simulated configuration:
//
//	res, err := bdps.RunSim(bdps.SimConfig{
//	    Seed:     1,
//	    Scenario: bdps.PSD,
//	    Strategy: bdps.EB(),
//	    Workload: bdps.WorkloadConfig{RatePerMin: 10, Duration: 10 * bdps.Minute},
//	})
//	fmt.Printf("delivery rate: %.1f%%\n", 100*res.DeliveryRate())
//
// Reproduce a paper figure:
//
//	figs, err := bdps.RunFigure("6a", bdps.ExperimentOptions{})
//	figs[0].Render(os.Stdout)
package bdps

import (
	"bdps/internal/core"
	"bdps/internal/experiments"
	"bdps/internal/filter"
	"bdps/internal/livenet"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// Core model types.
type (
	// Scenario selects who specifies the delay bound (PSD or SSD).
	Scenario = msg.Scenario
	// Message is a published message.
	Message = msg.Message
	// Subscription is a subscriber's standing interest.
	Subscription = msg.Subscription
	// NodeID identifies a broker, publisher or subscriber.
	NodeID = msg.NodeID
	// SubID identifies a subscription.
	SubID = msg.SubID
	// Filter is a parsed content filter.
	Filter = filter.Filter
	// Strategy schedules broker output queues.
	Strategy = core.Strategy
	// Params are broker scheduling parameters (processing delay PD and
	// the invalid-message threshold ε).
	Params = core.Params
	// Millis is virtual time in milliseconds.
	Millis = vtime.Millis
)

// Simulation and experiment types.
type (
	// SimConfig describes one simulation run.
	SimConfig = runtime.Config
	// WorkloadConfig parameterizes publishers and subscribers.
	WorkloadConfig = workload.Config
	// Result is one run's metrics.
	Result = metrics.Result
	// ExperimentOptions scales a figure reproduction.
	ExperimentOptions = experiments.Options
	// Figure is one reproduced figure panel.
	Figure = experiments.Figure
	// Overlay is a broker topology with ingress/edge roles.
	Overlay = topology.Overlay
	// LayeredConfig parameterizes the paper's layered-mesh topology.
	LayeredConfig = topology.LayeredConfig
	// LinkModel selects the per-transfer rate distribution shape.
	LinkModel = runtime.LinkModel
	// Backend is a runtime transport: a deployment substrate the
	// scheduling system runs on (simulator or live TCP overlay).
	Backend = runtime.Transport
)

// Scenarios.
const (
	// PSD: publisher-specified delay; objective = delivery rate.
	PSD = msg.PSD
	// SSD: subscriber-specified delay with prices; objective = earning.
	SSD = msg.SSD
)

// Link models for SimConfig.LinkModel.
const (
	LinkNormal = runtime.LinkNormal
	LinkFixed  = runtime.LinkFixed
	LinkGamma  = runtime.LinkGamma
)

// Time units for durations in configs.
const (
	Ms     = vtime.Ms
	Second = vtime.Second
	Minute = vtime.Minute
	Hour   = vtime.Hour
)

// FIFO returns the first-in-first-out baseline strategy.
func FIFO() Strategy { return core.FIFO{} }

// RL returns the minimum-remaining-lifetime-first baseline strategy.
func RL() Strategy { return core.RL{} }

// EB returns the maximum-expected-benefit-first strategy (§5.1).
func EB() Strategy { return core.MaxEB{} }

// PC returns the maximum-postponing-cost-first strategy (§5.2).
func PC() Strategy { return core.MaxPC{} }

// EBPC returns the combined strategy with weight r ∈ [0,1] (§5.3).
func EBPC(r float64) Strategy { return core.MaxEBPC{R: r} }

// ParseStrategy resolves "fifo", "rl", "eb", "pc", "ebpc" or "ebpc:<r>".
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// DefaultParams returns the paper's scheduling parameters (PD = 2 ms,
// ε = 0.05%).
func DefaultParams() Params { return core.DefaultParams() }

// ParseFilter parses a subscription filter such as "A1 < 5 && A2 < 3".
func ParseFilter(src string) (*Filter, error) { return filter.Parse(src) }

// BuildLayeredOverlay constructs the paper's 32-broker, 4-layer mesh
// (Figure 3), or a variant per the config.
func BuildLayeredOverlay(cfg LayeredConfig) (*Overlay, error) {
	return topology.BuildLayered(cfg)
}

// RunSim executes one simulation run to completion and returns its
// metrics.
func RunSim(cfg SimConfig) (Result, error) { return runtime.Run(cfg, simnet.Transport{}) }

// SimBackend returns the deterministic discrete-event backend.
func SimBackend() Backend { return simnet.Transport{} }

// LiveBackend returns the live TCP backend: the same deployment plan
// runs as an in-process loopback broker cluster, paced on a wall clock
// compressed by SimConfig.TimeScale.
func LiveBackend() Backend { return livenet.Transport{} }

// RunOn executes one configuration on the chosen backend through the
// unified runtime layer. RunOn(cfg, SimBackend()) is RunSim.
func RunOn(cfg SimConfig, b Backend) (Result, error) { return runtime.Run(cfg, b) }

// RunFigure reproduces one paper figure ("4a", "4b", "5", "5a", "5b",
// "6", "6a", "6b").
func RunFigure(id string, opts ExperimentOptions) ([]*Figure, error) {
	return experiments.Run(id, opts)
}

// RunAllFigures reproduces the full evaluation section.
func RunAllFigures(opts ExperimentOptions) ([]*Figure, error) {
	return experiments.All(opts)
}
