package runtime

import (
	"fmt"

	"bdps/internal/metrics"
	"bdps/internal/msg"
)

// Result is the unified per-run outcome every backend produces. It is
// the metrics result assembled by the Run driver: publication accounting
// from the plan, delivery accounting from the deployment, identification
// and peak-queue diagnostics stamped on top.
type Result = metrics.Result

// Transport realizes a plan on one backend. Implementations are thin:
// all wiring lives in the Plan, so a transport only decides how time
// passes and how messages move between brokers.
type Transport interface {
	// Name identifies the backend ("sim", "live") in results and flags.
	Name() string
	// Deterministic reports whether identical configs produce identical
	// results — the property the experiment run cache requires.
	Deterministic() bool
	// Deploy assembles a runnable deployment from a plan.
	Deploy(p *Plan) (Deployment, error)
}

// Deployment is one deployed plan, ready to carry the workload.
type Deployment interface {
	// Inject introduces the plan's publications: the simulator schedules
	// each at its virtual Published instant and returns immediately; the
	// live overlay paces them out in compressed wall time and returns
	// when the last has been sent.
	Inject(pubs []*msg.Message) error
	// Drain runs the deployment to quiescence: all injected messages
	// delivered, dropped or expired, every queue empty, and every count
	// on the plan's collector.
	Drain() error
	// PeakQueue reports the largest queue occupancy observed; call after
	// Drain. It stays readable after Close.
	PeakQueue() int
	// Close releases backend resources (connections, goroutines,
	// timers). Safe after a failed Drain, and safe to call twice.
	Close() error
}

// Run executes one config on a backend: assemble the plan, deploy it,
// account the publication side, drive the workload through, and freeze
// the collector into a Result. This is the single entry point for every
// backend: runtime.Run(cfg, simnet.Transport{}) on the simulator,
// runtime.Run(cfg, livenet.Transport{}) on the live overlay.
func Run(cfg Config, t Transport) (Result, error) {
	p, err := NewPlan(cfg)
	if err != nil {
		return Result{}, err
	}
	dep, err := t.Deploy(p)
	if err != nil {
		return Result{}, err
	}
	defer dep.Close()

	// Publication-side accounting is backend-independent: Σ tsᵢ depends
	// only on the workload and the subscription population; it is the
	// collector's single-writer side.
	p.AccountPublications()

	if err := dep.Inject(p.Pubs); err != nil {
		return Result{}, err
	}
	if err := dep.Drain(); err != nil {
		return Result{}, err
	}
	// Stop the backend before reading what it wrote: a live deployment's
	// repair goroutine can still record a detection until Close.
	if err := dep.Close(); err != nil {
		return Result{}, err
	}

	if p.Cfg.Aggregate {
		// End-of-run table census: live entries whose refcount stands for
		// more than one concrete subscription. (Live-backend deployments
		// mutate the same plan tables, so one scan serves both.)
		n := 0
		for _, t := range p.Tables {
			n += t.AggregatedEntries()
		}
		p.Metrics.AggregatedEntries(n)
	}

	r := p.Metrics.Result()
	r.Seed = p.Cfg.Seed
	r.Strategy = p.Cfg.Strategy.Name()
	r.Scenario = p.Cfg.Scenario.String()
	r.Backend = t.Name()
	r.Label = fmt.Sprintf("%s/%s rate=%.0f", r.Scenario, r.Strategy, p.Cfg.Workload.RatePerMin)
	r.PeakQueue = dep.PeakQueue()
	return r, nil
}
