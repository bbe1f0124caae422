// Package runtime is the backend-agnostic deployment layer: one Config,
// one deployment Plan and one Run driver shared by every backend that can
// carry the bounded-delay scheduling system — today the discrete-event
// simulator (internal/simnet) and the live TCP overlay (internal/livenet).
//
// The split of responsibilities:
//
//   - runtime owns everything the backends used to duplicate: deployment
//     wiring (topology → link-rate beliefs → routing tables → brokers →
//     per-link queues), workload generation and publication accounting,
//     scenario features (multipath + dedup, injected faults), clocking
//     (one Clock interface over virtual and wall time) and per-run
//     metrics assembly into one runtime.Result.
//   - a Transport realizes time and message movement: the simulator turns
//     link transfers into discrete events on a virtual clock; the live
//     overlay paces real TCP frames against a wall clock.
//
// New scenarios are written once against this package and run on every
// backend; experiments select a backend with Options.Backend and
// cmd/bdps-sim with -backend={sim,live}.
package runtime

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/topology"
	"bdps/internal/trace"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// LinkModel selects how per-transfer link rates are drawn.
type LinkModel uint8

// Link models.
const (
	// LinkNormal samples each transfer's per-KB rate from the link's
	// N(μ,σ²), truncated at MinRate — the paper's model (§3.2).
	LinkNormal LinkModel = iota
	// LinkFixed uses the mean deterministically (the fixed-bandwidth
	// assumption of QRON-style related work, for the ablation).
	LinkFixed
	// LinkGamma samples from a shifted gamma matched to the link's mean
	// and variance (the IP-delay shape of the paper's refs [17,18]).
	LinkGamma
)

// String implements fmt.Stringer.
func (m LinkModel) String() string {
	switch m {
	case LinkNormal:
		return "normal"
	case LinkFixed:
		return "fixed"
	case LinkGamma:
		return "gamma"
	}
	return fmt.Sprintf("LinkModel(%d)", uint8(m))
}

// Config describes one run, on any backend.
type Config struct {
	Seed     uint64
	Scenario msg.Scenario
	Strategy core.Strategy
	Params   core.Params

	Workload workload.Config

	// Overlay, when non-nil, is used as-is; otherwise TopologyCfg builds
	// the paper's layered mesh with the run's seed.
	Overlay     *topology.Overlay
	TopologyCfg topology.LayeredConfig

	// Multipath > 1 enables K-path routing with per-broker deduplication.
	Multipath int

	// MeasureSamples > 0 makes brokers estimate link-rate parameters from
	// that many measured transfers instead of knowing them exactly.
	MeasureSamples int

	LinkModel LinkModel
	// MinRate truncates sampled rates (ms/KB); default 1.
	MinRate float64

	// Faults injects failures into the run (link outages, broker
	// crashes). Empty means a fault-free run.
	Faults []Fault

	// Tracer receives per-message lifecycle events; nil disables tracing.
	// Only the simulator backend traces today.
	Tracer trace.Tracer

	// PerSubscriber enables per-subscriber delivery accounting (Jain
	// fairness in the Result). Costs one map update per delivery.
	PerSubscriber bool

	// Aggregate enables covering-based subscription aggregation: a
	// subscription is forwarded (and holds routing entries upstream) only
	// if no already-forwarded filter with identical delivery terms covers
	// it; covered subscriptions ride the coverer's entries, refcounted.
	// Delivery semantics are identical to the flat build.
	Aggregate bool

	// Subscriptions overrides the workload-generated population with an
	// explicit one (every subscription must attach to an edge broker).
	Subscriptions []*msg.Subscription

	// TimeScale compresses emulated delays on wall-clock backends: real
	// sleep = emulated ms × TimeScale. 1.0 is real time; tests use
	// ~0.002. The simulator ignores it (virtual time costs nothing).
	TimeScale float64

	// Deprecated: ignored. Live brokers process every message on its
	// connection's read loop; there are no ingress workers to count.
	LiveShards int

	// Recovery configures the self-healing control plane: failure
	// detection, topology repair, and delay-bound renegotiation.
	Recovery Recovery

	// Reliability configures how a link heals the LinkLoss adversary:
	// retransmission, deadline-aware retry admission and the reorder
	// window.
	Reliability Reliability

	// TimelineBucket > 0 records a delivery-rate timeline bucketed by
	// publication instant (emulated ms per bucket) into Result.Timeline —
	// the instrument behind the recovery ablation figures.
	TimelineBucket vtime.Millis

	// Admission configures overload protection: online publication
	// admission control and pressure-triggered queue shedding.
	Admission Admission
}

// Admission configures the overload-protection layer. Two independently
// armable defenses:
//
//   - Enabled gates every publication (and flash-crowd subscription
//     flood) through the paper's admission test, replayed online against
//     the ingress broker's modeled load: the publication is admitted as
//     published, admitted under a relaxed bound, or rejected before
//     injection. Decisions are deterministic functions of the plan, so
//     both backends agree on the admission ledger exactly.
//   - Shed arms graceful degradation: when an output queue exceeds
//     MaxQueue entries, the broker sheds the lowest-scored entries
//     (worst success probability first — core.Queue.ShedWorst) instead
//     of letting the backlog starve everything.
type Admission struct {
	// Enabled turns on online publication admission control.
	Enabled bool

	// Shed arms pressure-triggered worst-first queue shedding.
	Shed bool

	// MaxQueue is the per-output-queue occupancy threshold: the shed
	// trigger, and the backlog the admission model treats as saturation
	// (default 256).
	MaxQueue int

	// SuccessTarget is the delivery probability an admitted bound must
	// retain under the modeled load (default 0.9).
	SuccessTarget float64

	// MaxRelaxFactor caps bound relaxation: a publication whose cheapest
	// feasible bound exceeds MaxRelaxFactor × the requested bound is
	// rejected instead of relaxed (default 2).
	MaxRelaxFactor float64

	// RateHalfLife is the half-life of the per-ingress arrival-rate EWMA
	// in emulated ms (default 10 s).
	RateHalfLife vtime.Millis
}

// Defaulted returns the config with zero fields replaced by their
// defaults — for callers outside the plan pipeline (standalone live
// clusters).
func (a Admission) Defaulted() Admission {
	(&a).setDefaults()
	return a
}

func (a *Admission) setDefaults() {
	if a.MaxQueue <= 0 {
		a.MaxQueue = 256
	}
	if a.SuccessTarget <= 0 {
		a.SuccessTarget = 0.9
	}
	if a.MaxRelaxFactor <= 0 {
		a.MaxRelaxFactor = 2
	}
	if a.RateHalfLife <= 0 {
		a.RateHalfLife = 10 * vtime.Second
	}
}

// Recovery configures the self-healing control plane. Detection and
// repair are one switch: a confirmed failure always triggers topology
// repair (pruning the dead arcs, rerouting the moved subscriptions
// through the surviving graph). Renegotiate additionally replays the
// admission math on every rerouted path, relaxing or rejecting bounds
// the new route cannot honor.
type Recovery struct {
	// Detect enables failure detection + topology repair. On the live
	// overlay each broker probes its neighbors with heartbeat frames; the
	// simulator schedules the equivalent detection events on virtual time.
	Detect bool

	// HeartbeatInterval is the per-link probe period in emulated ms
	// (default 500). The live overlay scales it by TimeScale.
	HeartbeatInterval vtime.Millis

	// HeartbeatTimeout is the silence after which a link is declared dead
	// (default 4× the interval).
	HeartbeatTimeout vtime.Millis

	// Renegotiate enables online delay-bound renegotiation on rerouted
	// paths (requires Detect).
	Renegotiate bool

	// SuccessTarget is the delivery probability a kept bound must retain
	// on the new path (default 0.5 — the mean-rate feasibility of the
	// paper's admission rule).
	SuccessTarget float64

	// MaxRelaxFactor caps how far a bound may be relaxed: a renegotiated
	// bound above MaxRelaxFactor × the original is rejected instead
	// (default 3).
	MaxRelaxFactor float64
}

func (r *Recovery) setDefaults() {
	if r.HeartbeatInterval <= 0 {
		r.HeartbeatInterval = 500
	}
	if r.HeartbeatTimeout <= 0 {
		r.HeartbeatTimeout = 4 * r.HeartbeatInterval
	}
	if r.SuccessTarget <= 0 {
		r.SuccessTarget = 0.5
	}
	if r.MaxRelaxFactor <= 0 {
		r.MaxRelaxFactor = 3
	}
}

// Reliability configures how every link — both backends run the same
// one — answers loss and reordering. The zero value (after defaults)
// retries lost frames with deadline-aware admission.
type Reliability struct {
	// NoRetry disables retransmission: lost frames stay lost (the
	// loss-no-retry ablation arm).
	NoRetry bool

	// BlindRetry disables the deadline-aware admission gate: every loss is
	// retransmitted until MaxAttempts, even when the message can no longer
	// meet its bound.
	BlindRetry bool

	// MaxAttempts caps total transmissions per frame, retries included
	// (default 16 — a runaway backstop, not a tuning knob).
	MaxAttempts int

	// SuccessTarget is the delivery probability the remaining slack must
	// retain for a retransmission to be admitted (deadline-aware mode);
	// default 0.99, deliberately stricter than Recovery.SuccessTarget
	// because a retry burns slack the original admission already budgeted.
	SuccessTarget float64

	// Window bounds each link's reorder-heal buffer at the receiver, in
	// frames (default 64), on both backends.
	Window int
}

// Defaulted returns the config with zero fields replaced by their
// defaults — for callers outside the plan pipeline (standalone live
// clusters), whose configs never pass through Config.setDefaults.
func (r Reliability) Defaulted() Reliability {
	(&r).setDefaults()
	return r
}

func (r *Reliability) setDefaults() {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 16
	}
	if r.SuccessTarget <= 0 {
		r.SuccessTarget = 0.99
	}
	if r.Window <= 0 {
		r.Window = 64
	}
}

// Fault is an injected failure. The concrete types are LinkDown,
// BrokerCrash, LinkLoss, BrokerRestart and SessionDown.
type Fault interface {
	isFault()
}

// LinkDown takes the directed link From→To out of service during
// [Start, End): no new transmissions start (in-flight transfers finish).
// Take both directions down with two faults.
type LinkDown struct {
	From, To   msg.NodeID
	Start, End vtime.Millis
}

func (LinkDown) isFault() {}

// ParseLinkDown reads an outage spec "from:to:start:end": broker ids,
// then Go durations into the run, e.g. "2:6:30s:80s". The offsets are
// read on the run's clock — emulated time on a plan deployment, wall
// time on a standalone live cluster.
func ParseLinkDown(s string) (LinkDown, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return LinkDown{}, fmt.Errorf("want from:to:start:end (e.g. 2:6:30s:80s), got %q", s)
	}
	var ids [2]uint64
	for i, name := range [2]string{"from", "to"} {
		v, err := strconv.ParseUint(strings.TrimSpace(parts[i]), 10, 32)
		if err != nil {
			return LinkDown{}, fmt.Errorf("%s: %w", name, err)
		}
		ids[i] = v
	}
	var at [2]time.Duration
	for i, name := range [2]string{"start", "end"} {
		d, err := time.ParseDuration(strings.TrimSpace(parts[2+i]))
		if err != nil {
			return LinkDown{}, fmt.Errorf("%s: %w", name, err)
		}
		at[i] = d
	}
	if at[1] <= at[0] {
		return LinkDown{}, fmt.Errorf("end %v must follow start %v", at[1], at[0])
	}
	return LinkDown{
		From:  msg.NodeID(ids[0]),
		To:    msg.NodeID(ids[1]),
		Start: vtime.FromDuration(at[0]),
		End:   vtime.FromDuration(at[1]),
	}, nil
}

// BrokerCrash permanently kills a broker at time At: queued and arriving
// messages are lost, and its links stop sending.
type BrokerCrash struct {
	ID msg.NodeID
	At vtime.Millis
}

func (BrokerCrash) isFault() {}

// LinkLoss subjects the directed link From→To to a lossy-network
// adversary during [Start, End): each transmission is independently
// dropped with probability Rate, each delivered frame duplicated with
// probability Dup and swapped with its successor with probability
// Reorder. From = To = msg.None (-1) applies the adversary to every arc.
// End ≤ 0 keeps it active for the whole run. Decisions are drawn from a
// deterministic per-(link, seq, attempt) hash of the run seed, so the
// simulator and the live overlay face the identical adversary.
type LinkLoss struct {
	From, To   msg.NodeID
	Rate       float64 // per-transmission drop probability, [0,1)
	Dup        float64 // per-delivery duplication probability, [0,1)
	Reorder    float64 // per-delivery swap-with-successor probability, [0,1)
	Start, End vtime.Millis
}

func (LinkLoss) isFault() {}

// BrokerRestart brings a crashed broker back at time At as a fresh
// incarnation recovering from its durable state: the routing entries it
// held at the crash are reinstalled from the log, its incarnation epoch
// is bumped (in-flight frames of the dead incarnation are rejected as
// stale), and the repair engine reroutes the recovered subscriptions
// back through it — renegotiating delay bounds over the rejoined paths.
// Must follow a BrokerCrash of the same broker at an earlier time.
type BrokerRestart struct {
	ID msg.NodeID
	At vtime.Millis
}

func (BrokerRestart) isFault() {}

// SessionDown detaches one subscriber's client session during
// [Start, End): deliveries matched to the subscription while it is down
// are retained in the edge broker's bounded replay ring instead of
// handed off. At End the session resumes with its resume token and the
// broker replays the retained deliveries whose bounds still hold;
// expired ones are dropped as DroppedDeadline — a resumed subscriber
// never receives a late message, and never receives one twice.
type SessionDown struct {
	Sub        msg.SubID
	Start, End vtime.Millis
}

func (SessionDown) isFault() {}

func (c *Config) setDefaults() error {
	if c.Strategy == nil {
		c.Strategy = core.MaxEB{}
	}
	if c.Params == (core.Params{}) {
		c.Params = core.DefaultParams()
	}
	if c.MinRate == 0 {
		c.MinRate = 1
	}
	// Recovery defaults are filled unconditionally so a Config's cache
	// identity is stable whether or not recovery is enabled.
	c.Recovery.setDefaults()
	c.Reliability.setDefaults()
	c.Admission.setDefaults()
	c.Workload.Scenario = c.Scenario
	if c.Workload.Seed == 0 {
		c.Workload.Seed = c.Seed
	}
	return c.Workload.Validate()
}
