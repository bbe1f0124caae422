package runtime

import (
	"fmt"
	"slices"
	"sort"

	"bdps/internal/broker"
	"bdps/internal/filter"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// Link is one directed overlay link of a plan, in deterministic
// (sorted-arc) order. Index is the position in Plan.Links and seeds the
// link's random stream, so the simulator and the live overlay draw the
// same per-link rate sequences from one config.
type Link struct {
	Index    int
	From, To msg.NodeID
	Truth    stats.Normal
}

// Plan is one fully assembled deployment: everything about a run that
// does not depend on how time and message movement are realized. Either
// backend deploys a plan built from one config — same overlay, same
// routing tables, same broker assembly, same publication schedule —
// which is what makes their results comparable run for run.
//
// A plan is single-use: deploying it hands its stateful parts (broker
// instances, metrics collector) to the deployment. To run one config on
// several backends, build one plan per run (runtime.Run does).
type Plan struct {
	// Cfg is the configuration after defaulting.
	Cfg Config

	Overlay *topology.Overlay
	// Subs is the subscription population (workload-generated or adopted
	// from Cfg.Subscriptions).
	Subs []*msg.Subscription
	// Beliefs supplies the link-rate distribution brokers believe a link
	// has: the true distribution (paper default) or a measured estimate.
	Beliefs routing.RateFunc
	// Tables are the per-broker routing tables built from Beliefs.
	Tables map[msg.NodeID]*routing.Table
	// Brokers are the assembled broker instances, one per overlay node.
	// Backends drive them; they never build their own.
	Brokers map[msg.NodeID]*broker.Broker
	// Links lists every directed link in deterministic order.
	Links []Link
	// Pubs holds every publication of the run in per-publisher generation
	// order (publishers enumerated in ingress order). Wall-clock backends
	// pace a time-sorted copy; the simulator schedules each at its
	// Published instant.
	Pubs []*msg.Message
	// SubEvents is the churn schedule (time-sorted subscribe/unsubscribe
	// events; empty when Workload.Churn is off). The simulator applies
	// each event to the routing tables at its virtual instant; the live
	// overlay floods it through the overlay at the scaled wall instant.
	SubEvents []workload.SubEvent
	// Metrics is the run's collector. The Run driver performs the
	// publication-side accounting; the simulator feeds the delivery side
	// directly, live nodes through ledgers their deployment merges in.
	Metrics *metrics.Collector

	// Agg is the covering-aggregation driver bound to Tables when
	// Cfg.Aggregate is on (nil otherwise). The simulator routes churn
	// events through it; the live overlay makes the same decisions
	// node-locally instead.
	Agg *routing.AggTables
}

// NewPlan assembles a deployment (Assemble), then adds its schedule: the
// publications, the churn and flash-crowd subscription events,
// per-subscriber shaping of the collector and the admission sweep.
func NewPlan(cfg Config) (*Plan, error) {
	p, err := Assemble(cfg)
	if err != nil {
		return nil, err
	}
	p.schedule()
	return p, nil
}

// Assemble builds the part of a plan that does not depend on time:
// defaults, the overlay (built or adopted), the subscription population
// (Cfg.Subscriptions, or the workload's when that is nil), the links,
// the link beliefs, the routing tables and the brokers, and it validates
// the injected faults. Its plan has no schedule — no publications, no
// subscription events — so a live cluster whose subscriptions arrive
// from its clients (Subscriptions empty, not nil) deploys it as it is.
func Assemble(cfg Config) (*Plan, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ov := cfg.Overlay
	if ov == nil {
		tc := cfg.TopologyCfg
		if tc.Seed == 0 {
			tc.Seed = cfg.Seed
		}
		built, err := topology.BuildLayered(tc)
		if err != nil {
			return nil, err
		}
		ov = built
	}

	// The plan sorts its faults in place (validateFaults); copies of one
	// Config that share a Faults array must not see that.
	cfg.Faults = slices.Clone(cfg.Faults)
	p := &Plan{
		Cfg:     cfg,
		Overlay: ov,
		Brokers: make(map[msg.NodeID]*broker.Broker),
		Metrics: &metrics.Collector{},
	}
	p.Metrics.EnableTimeline(cfg.TimelineBucket, cfg.Workload.Duration)
	if cfg.Subscriptions != nil {
		p.Subs = cfg.Subscriptions
	} else {
		p.Subs = cfg.Workload.Subscriptions(ov.Edges)
	}

	arcs := ov.Graph.SortedArcs()
	p.Links = make([]Link, len(arcs))
	for i, arc := range arcs {
		truth, _ := ov.Graph.Rate(arc[0], arc[1])
		p.Links[i] = Link{Index: i, From: arc[0], To: arc[1], Truth: truth}
	}

	// Link-rate beliefs: exact (paper default) or measured. The stream
	// labels predate this package and are kept verbatim so seeded runs
	// reproduce earlier releases bit for bit.
	p.Beliefs = func(from, to msg.NodeID) stats.Normal {
		r, _ := ov.Graph.Rate(from, to)
		return r
	}
	if cfg.MeasureSamples > 0 {
		measured := make(map[[2]msg.NodeID]stats.Normal, len(p.Links))
		for _, l := range p.Links {
			sampler := NewSampler(cfg.LinkModel, l.Truth, cfg.MinRate)
			probe := stats.DeriveN(cfg.Seed, "simnet/measure", l.Index)
			est := &stats.WelfordEstimator{Prior: l.Truth}
			for k := 0; k < cfg.MeasureSamples; k++ {
				est.Observe(sampler.Sample(probe))
			}
			measured[[2]msg.NodeID{l.From, l.To}] = est.Estimate()
		}
		p.Beliefs = func(from, to msg.NodeID) stats.Normal {
			return measured[[2]msg.NodeID{from, to}]
		}
	}

	var tables map[msg.NodeID]*routing.Table
	var err error
	if cfg.Aggregate {
		tables, p.Agg, err = routing.BuildAggregated(ov, p.Subs, routing.Options{
			Rates:     p.Beliefs,
			Multipath: cfg.Multipath,
		}, func(n int) { p.Metrics.Count(metrics.FloodsSuppressed, n) })
	} else {
		tables, err = routing.Build(ov, p.Subs, routing.Options{
			Rates:     p.Beliefs,
			Multipath: cfg.Multipath,
		})
	}
	if err != nil {
		return nil, err
	}
	p.Tables = tables

	for id := 0; id < ov.Graph.N(); id++ {
		nid := msg.NodeID(id)
		b, err := p.NewBroker(nid, tables[nid])
		if err != nil {
			return nil, err
		}
		p.Brokers[nid] = b
	}

	if err := p.validateFaults(); err != nil {
		return nil, err
	}
	return p, nil
}

// schedule adds what NewPlan adds to Assemble: the publications, the
// subscription events, per-subscriber shaping and the admission sweep.
func (p *Plan) schedule() {
	cfg, ov := &p.Cfg, p.Overlay
	// The publications and their attributes are carved from two slabs of
	// exactly the run's size: a counting pass replays each publisher's
	// stream to size them, a second pass fills them.
	const perMsg = workload.AttrsPerMessage
	var scratch msg.Message
	scratchAttrs := make([]msg.Attr, perMsg)
	counts := make([]int, len(ov.Ingress))
	total := 0
	for i, ingress := range ov.Ingress {
		pub := cfg.Workload.NewPublisher(i, ingress)
		for pub.NextInto(&scratch, scratchAttrs) {
			counts[i]++
		}
		total += counts[i]
	}
	msgs := make([]msg.Message, total)
	attrs := make([]msg.Attr, total*perMsg)
	p.Pubs = make([]*msg.Message, total)
	k := 0
	for i, ingress := range ov.Ingress {
		pub := cfg.Workload.NewPublisher(i, ingress)
		for range counts[i] {
			pub.NextInto(&msgs[k], attrs[k*perMsg:(k+1)*perMsg:(k+1)*perMsg])
			p.Pubs[k] = &msgs[k]
			k++
		}
	}

	// Dynamic-population ids start above the whole static population so
	// the id spaces never collide; flash-crowd burst subscribers allocate
	// above the churn population in turn.
	first := msg.SubID(0)
	for _, s := range p.Subs {
		if s.ID >= first {
			first = s.ID + 1
		}
	}
	if cfg.Workload.Churn.Enabled() {
		p.SubEvents = cfg.Workload.ChurnEvents(ov.Edges, first)
		for _, ev := range p.SubEvents {
			if !ev.Unsub && ev.Sub.ID >= first {
				first = ev.Sub.ID + 1
			}
		}
	}
	if cfg.Workload.FlashCrowd.SubBurst > 0 {
		p.SubEvents = workload.MergeSubEvents(p.SubEvents,
			cfg.Workload.FlashSubEvents(ov.Edges, first))
	}
	if cfg.PerSubscriber {
		for _, ev := range p.SubEvents {
			first = max(first, ev.Sub.ID+1)
		}
		p.Metrics.EnablePerSubscriber(int(first))
	}

	// Overload protection last: the admission sweep filters rejected
	// publications and subscription events out of the finished schedules,
	// so every backend deploys the already-admitted plan and the SLO
	// ledger agrees across them exactly.
	p.admitWorkload()
}

// NewBroker builds broker id of this plan around a routing table: link
// means from Beliefs, dedup under multipath, shedding per Cfg.Admission.
// Deployment and every rejoin, simulated or live, build through it.
func (p *Plan) NewBroker(id msg.NodeID, t *routing.Table) (*broker.Broker, error) {
	means := make(map[msg.NodeID]float64)
	for _, e := range p.Overlay.Graph.Neighbors(id) {
		means[e.To] = p.Beliefs(id, e.To).Mean
	}
	pressure := 0
	if p.Cfg.Admission.Shed {
		pressure = p.Cfg.Admission.MaxQueue
	}
	return broker.New(broker.Config{
		ID:        id,
		Scenario:  p.Cfg.Scenario,
		Params:    p.Cfg.Params,
		Strategy:  p.Cfg.Strategy,
		Table:     t,
		LinkMeans: means,
		Dedup:     p.Cfg.Multipath > 1,
		Pressure:  pressure,
	})
}

// validateFaults rejects faults that reference nonexistent overlay
// elements, have degenerate windows, fall past the run horizon, or
// overlap on the same link — uniformly for every backend — and then
// sorts the fault list into a deterministic order (by time, then kind,
// then ids) so backends arm faults identically regardless of how the
// caller listed them.
func (p *Plan) validateFaults() error {
	// The run horizon: the last instant any publication can still matter.
	horizon := p.Cfg.Workload.Duration + p.Cfg.Workload.PSDDelayHi
	for _, dl := range p.Cfg.Workload.SSDDeadlines {
		if p.Cfg.Workload.Duration+dl > horizon {
			horizon = p.Cfg.Workload.Duration + dl
		}
	}
	// windows lists the outage windows of each arc and each session, by
	// what an overlap error names.
	type window struct{ start, end vtime.Millis }
	windows := make(map[string][]window)
	lossArcs := make(map[[2]msg.NodeID]bool)
	lossWild := false
	crashAt := make(map[msg.NodeID]vtime.Millis)
	restarted := make(map[msg.NodeID]bool)
	for _, f := range p.Cfg.Faults {
		if at, _, _, _ := faultKey(f); at > horizon {
			return fmt.Errorf("%T at %v starts past the run horizon %v", f, at, horizon)
		}
		switch f := f.(type) {
		case LinkDown:
			if _, ok := p.Overlay.Graph.Rate(f.From, f.To); !ok {
				return fmt.Errorf("runtime: LinkDown on missing arc %d->%d", f.From, f.To)
			}
			if f.End <= f.Start {
				return fmt.Errorf("runtime: LinkDown window [%v,%v) has non-positive duration", f.Start, f.End)
			}
			on := fmt.Sprintf("LinkDown windows on arc %d->%d", f.From, f.To)
			windows[on] = append(windows[on], window{f.Start, f.End})
		case BrokerCrash:
			if _, ok := p.Brokers[f.ID]; !ok {
				return fmt.Errorf("runtime: BrokerCrash on unknown broker %d", f.ID)
			}
			if _, dup := crashAt[f.ID]; dup {
				return fmt.Errorf("runtime: duplicate BrokerCrash on broker %d", f.ID)
			}
			crashAt[f.ID] = f.At
		case BrokerRestart:
			if _, ok := p.Brokers[f.ID]; !ok {
				return fmt.Errorf("runtime: BrokerRestart on unknown broker %d", f.ID)
			}
			at, crashed := crashAt[f.ID]
			if !crashed {
				return fmt.Errorf("runtime: BrokerRestart of broker %d without a preceding BrokerCrash", f.ID)
			}
			if f.At <= at {
				return fmt.Errorf("runtime: BrokerRestart of broker %d at %v not after its crash at %v", f.ID, f.At, at)
			}
			if restarted[f.ID] {
				return fmt.Errorf("runtime: duplicate BrokerRestart on broker %d", f.ID)
			}
			restarted[f.ID] = true
		case SessionDown:
			if !p.hasSub(f.Sub) {
				return fmt.Errorf("runtime: SessionDown on unknown subscription %d", f.Sub)
			}
			if f.End <= f.Start {
				return fmt.Errorf("runtime: SessionDown window [%v,%v) has non-positive duration", f.Start, f.End)
			}
			on := fmt.Sprintf("SessionDown windows on subscription %d", f.Sub)
			windows[on] = append(windows[on], window{f.Start, f.End})
		case LinkLoss:
			wild := f.From == msg.None && f.To == msg.None
			if !wild {
				if _, ok := p.Overlay.Graph.Rate(f.From, f.To); !ok {
					return fmt.Errorf("runtime: LinkLoss on missing arc %d->%d", f.From, f.To)
				}
			}
			for name, rate := range map[string]float64{"Rate": f.Rate, "Dup": f.Dup, "Reorder": f.Reorder} {
				if rate < 0 || rate >= 1 {
					return fmt.Errorf("runtime: LinkLoss %s %v outside [0,1)", name, rate)
				}
			}
			if f.Start < 0 || (f.End > 0 && f.End <= f.Start) {
				return fmt.Errorf("runtime: LinkLoss window [%v,%v) has non-positive duration", f.Start, f.End)
			}
			// One adversary per arc: overlapping loss models would make the
			// deterministic per-(link, seq, attempt) decision hash ambiguous.
			if wild {
				if lossWild || len(lossArcs) > 0 {
					return fmt.Errorf("runtime: wildcard LinkLoss conflicts with another LinkLoss fault")
				}
				lossWild = true
			} else {
				arc := [2]msg.NodeID{f.From, f.To}
				if lossWild || lossArcs[arc] {
					return fmt.Errorf("runtime: duplicate LinkLoss on arc %d->%d", f.From, f.To)
				}
				lossArcs[arc] = true
			}
		default:
			return fmt.Errorf("runtime: unknown fault type %T", f)
		}
	}
	for on, ws := range windows {
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
		for i := 1; i < len(ws); i++ {
			if ws[i].start < ws[i-1].end {
				return fmt.Errorf("runtime: overlapping %s ([%v,%v) and [%v,%v))",
					on, ws[i-1].start, ws[i-1].end, ws[i].start, ws[i].end)
			}
		}
	}
	sort.SliceStable(p.Cfg.Faults, func(i, j int) bool {
		return faultLess(p.Cfg.Faults[i], p.Cfg.Faults[j])
	})
	return nil
}

// hasSub reports whether a subscription id is in the plan's static
// population (SessionDown targets static subscriptions; churn-event
// subscribers have no stable session to suspend).
func (p *Plan) hasSub(id msg.SubID) bool {
	for _, s := range p.Subs {
		if s.ID == id {
			return true
		}
	}
	return false
}

// faultKey flattens a fault into sortable fields: onset time, kind
// (crashes before link outages at the same instant), then ids.
func faultKey(f Fault) (at vtime.Millis, kind int, a, b msg.NodeID) {
	switch f := f.(type) {
	case BrokerCrash:
		return f.At, 0, f.ID, 0
	case LinkDown:
		return f.Start, 1, f.From, f.To
	case LinkLoss:
		return f.Start, 2, f.From, f.To
	case BrokerRestart:
		return f.At, 3, f.ID, 0
	case SessionDown:
		return f.Start, 4, msg.NodeID(f.Sub), 0
	}
	return 0, 5, 0, 0
}

// faultLess is the deterministic fault order shared by both backends.
func faultLess(x, y Fault) bool {
	xa, xk, x1, x2 := faultKey(x)
	ya, yk, y1, y2 := faultKey(y)
	if xa != ya {
		return xa < ya
	}
	if xk != yk {
		return xk < yk
	}
	if x1 != y1 {
		return x1 < y1
	}
	return x2 < y2
}

// AccountPublications records the publication side of the run's metrics
// — Σ tsᵢ over the whole schedule, per-subscriber when configured. It
// is backend-independent; call it exactly once per plan, before any
// delivery-side events reach the collector.
//
// Under churn the interested count of each publication is taken against
// the population active at its publication instant: the static
// subscribers plus every churn subscriber that has subscribed and not
// yet unsubscribed. (A message in flight when its subscriber leaves —
// or a subscriber arriving mid-flight — is the transient any dynamic
// pub/sub system has; publish-time accounting is the deterministic
// ground truth both backends share.)
func (p *Plan) AccountPublications() {
	var scratch filter.MatchScratch
	var static filter.Scan
	static.Reserve(len(p.Subs))
	for _, s := range p.Subs {
		static.Add(s.Filter)
	}
	if len(p.SubEvents) == 0 {
		for _, m := range p.Pubs {
			p.accountOne(&scratch, &static, m, nil)
		}
		return
	}
	// Sweep publications in time order against the churn schedule.
	order := make([]*msg.Message, len(p.Pubs))
	copy(order, p.Pubs)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Published < order[j].Published })
	active := make(map[msg.SubID]*msg.Subscription)
	ei := 0
	for _, m := range order {
		for ei < len(p.SubEvents) && p.SubEvents[ei].At <= m.Published {
			ev := p.SubEvents[ei]
			if ev.Unsub {
				delete(active, ev.Sub.ID)
			} else {
				active[ev.Sub.ID] = ev.Sub
			}
			ei++
		}
		p.accountOne(&scratch, &static, m, active)
	}
}

// accountOne records one publication's interested count over the static
// population — decided by the sweep's scan of p.Subs, the rows it flags
// confirmed by their filters — plus the currently active churn
// subscribers, through the sweep's match scratch.
func (p *Plan) accountOne(scratch *filter.MatchScratch, static *filter.Scan, m *msg.Message, churners map[msg.SubID]*msg.Subscription) {
	scratch.Resolve(&m.Attrs)
	var interested []int32
	n := 0
	for _, r := range scratch.ScanRows(static) {
		s := p.Subs[r>>1]
		if r&1 != 0 && !s.Filter.MatchResolved(scratch, &m.Attrs) {
			continue
		}
		n++
		if p.Cfg.PerSubscriber {
			interested = append(interested, int32(s.ID))
		}
	}
	for _, s := range churners {
		if s.Filter.MatchResolved(scratch, &m.Attrs) {
			n++
			if p.Cfg.PerSubscriber {
				interested = append(interested, int32(s.ID))
			}
		}
	}
	if p.Cfg.PerSubscriber {
		p.Metrics.PublishedToAt(interested, m.Published)
		return
	}
	p.Metrics.PublishedAt(n, m.Published)
}
