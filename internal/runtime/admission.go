package runtime

import (
	"math"
	"sort"

	"bdps/internal/filter"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// Online admission control (the overload-protection front door).
//
// The paper's admission test decides whether a delay bound is feasible
// on a path: CDF(slack) ≥ SuccessTarget, else relax, else reject
// (renegotiateBound). PR 3 replays that test when failures reroute
// paths; this file replays it at publication time against the ingress
// broker's *load*, so a flash crowd is turned away at the door instead
// of starving everyone already inside.
//
// The controller is a deterministic function of the plan: it sweeps the
// publication schedule and the subscription-event schedule in time
// order, maintains a per-ingress load model (EWMA arrival gap + virtual
// transmission backlog that drains in real time), and gates each
// publication through renegotiateBound with the bound discounted by the
// modeled queueing wait. Rejected publications are filtered from
// Plan.Pubs (before publication-side accounting, so Result counts only
// admitted traffic), PSD relaxations rewrite Message.Allowed on the
// shared message, and rejected flash-crowd subscribers are filtered
// from Plan.SubEvents. Both backends deploy the already-filtered plan,
// which is what makes the admission ledger agree exactly across them.

// ingressLoad is the modeled state of one ingress broker.
type ingressLoad struct {
	links   int          // worst-case hop count to any broker
	rate    stats.Normal // per-KB rate convolved along that worst path
	outMean float64      // slowest outgoing link's per-KB mean (ms/KB)

	last    vtime.Millis // previous arrival instant
	gap     vtime.Millis // EWMA inter-arrival gap
	backlog vtime.Millis // unserviced transmission work
	seen    bool
}

// drain ages the backlog to instant t.
func (ld *ingressLoad) drain(t vtime.Millis) {
	if !ld.seen {
		return
	}
	ld.backlog -= t - ld.last
	if ld.backlog < 0 {
		ld.backlog = 0
	}
}

// observe records an arrival at t, updating the EWMA inter-arrival gap
// with half-life halfLife of *elapsed emulated time*, so the estimate
// decays identically regardless of how many arrivals carry it.
func (ld *ingressLoad) observe(t, halfLife vtime.Millis) {
	if ld.seen {
		elapsed := t - ld.last
		if ld.gap <= 0 {
			ld.gap = elapsed
		} else {
			alpha := 1 - math.Exp(-math.Ln2*float64(elapsed)/float64(halfLife))
			ld.gap += vtime.Millis(alpha * float64(elapsed-ld.gap))
		}
	}
	ld.last, ld.seen = t, true
}

// wait is the modeled queueing delay a publication arriving now would
// see before its transmission starts: the backlog, inflated by the
// utilization ratio when arrivals outpace service (the EWMA gap is
// shorter than the per-message service time) — the regime where a
// snapshot backlog systematically underestimates the wait to come.
func (ld *ingressLoad) wait(service vtime.Millis) vtime.Millis {
	w := ld.backlog
	if ld.gap > 0 && service > ld.gap {
		w = vtime.Millis(float64(w) * float64(service) / float64(ld.gap))
	}
	return w
}

// admission is the controller state for one plan sweep.
type admission struct {
	p      *Plan
	cfg    Admission
	loads  map[msg.NodeID]*ingressLoad
	minSSD vtime.Millis
	// worst is the representative path over all ingresses (the one with
	// the most hops). Beyond gating subscription floods, it doubles as
	// the shared bottleneck: every admitted publication from *any*
	// ingress deposits work into it, scaled by the publication's
	// fan-out, so converging flash-crowd traffic is seen as one
	// saturating queue rather than dilute per-ingress trickles.
	worst ingressLoad
	// active holds admitted churn/flash subscribers currently joined —
	// each one matching a publication widens that publication's fan.
	active map[msg.SubID]*msg.Subscription
	// parallel is the overlay's transmission parallelism (its directed
	// link count): the shared bottleneck serves the network's aggregate
	// work, so each publication's fan of transmissions is spread over
	// this many concurrent servers.
	parallel float64
	// scratch and matched are the sweep's reusable match state.
	scratch filter.MatchScratch
	matched []*routing.Entry
}

// newAdmission characterizes every ingress: a BFS over the overlay from
// the ingress yields the worst-case hop count and the per-KB rate
// distribution convolved along that deepest path (the representative
// path the admission test is run against), plus the slowest outgoing
// link's mean (the virtual backlog's service rate).
func newAdmission(p *Plan) *admission {
	a := &admission{
		p:      p,
		cfg:    p.Cfg.Admission,
		loads:  make(map[msg.NodeID]*ingressLoad, len(p.Overlay.Ingress)),
		active: make(map[msg.SubID]*msg.Subscription),
	}
	for _, dl := range p.Cfg.Workload.SSDDeadlines {
		if dl > 0 && (a.minSSD == 0 || dl < a.minSSD) {
			a.minSSD = dl
		}
	}
	for _, ingress := range p.Overlay.Ingress {
		ld := a.characterize(ingress)
		a.loads[ingress] = ld
		if ld.links > a.worst.links ||
			(ld.links == a.worst.links && ld.rate.Mean > a.worst.rate.Mean) {
			a.worst = *ld
		}
	}
	a.parallel = float64(len(p.Links))
	if a.parallel < 1 {
		a.parallel = 1
	}
	return a
}

// characterize BFS-walks the overlay from one ingress, convolving link
// beliefs along the tree path, and keeps the deepest node (ties to the
// slower path) as the representative.
func (a *admission) characterize(ingress msg.NodeID) *ingressLoad {
	type visit struct {
		depth int
		rate  stats.Normal
	}
	g := a.p.Overlay.Graph
	seen := map[msg.NodeID]visit{ingress: {}}
	frontier := []msg.NodeID{ingress}
	ld := &ingressLoad{}
	for _, e := range g.Neighbors(ingress) {
		if m := a.p.Beliefs(ingress, e.To).Mean; m > ld.outMean {
			ld.outMean = m
		}
	}
	for len(frontier) > 0 {
		var next []msg.NodeID
		for _, n := range frontier {
			v := seen[n]
			if v.depth > ld.links ||
				(v.depth == ld.links && v.rate.Mean > ld.rate.Mean) {
				ld.links, ld.rate = v.depth, v.rate
			}
			for _, e := range g.Neighbors(n) {
				if _, ok := seen[e.To]; ok {
					continue
				}
				seen[e.To] = visit{
					depth: v.depth + 1,
					rate:  stats.SumNormal(v.rate, a.p.Beliefs(n, e.To)),
				}
				next = append(next, e.To)
			}
		}
		frontier = next
	}
	return ld
}

// pubBound is the delay bound admission must defend for one
// publication: the publisher's bound in PSD, the strictest subscriber
// deadline in SSD, the stricter of the two when both apply. 0 means
// unbounded (trivially admitted).
func (a *admission) pubBound(m *msg.Message) vtime.Millis {
	switch a.p.Cfg.Scenario {
	case msg.PSD:
		return m.Allowed
	case msg.SSD:
		return a.minSSD
	default:
		switch {
		case m.Allowed <= 0:
			return a.minSSD
		case a.minSSD <= 0:
			return m.Allowed
		case m.Allowed < a.minSSD:
			return m.Allowed
		default:
			return a.minSSD
		}
	}
}

// decide gates one publication. It returns false when the publication
// is rejected; an accepted publication may have had Allowed relaxed in
// place (PSD scenarios). The ledger is fed as a side effect.
func (a *admission) decide(m *msg.Message) bool {
	ld := a.loads[m.Ingress]
	if ld == nil {
		// Publications can only enter at plan ingresses; tolerate a
		// foreign one by admitting it unmodeled.
		a.p.Metrics.PubAdmitted(a.pubBound(m))
		return true
	}
	t := m.Published
	ld.drain(t)
	a.worst.drain(t)
	ld.observe(t, a.cfg.RateHalfLife)
	a.worst.observe(t, a.cfg.RateHalfLife)

	bound := a.pubBound(m)
	service := vtime.Millis(m.SizeKB * ld.outMean)
	// The shared bottleneck's service per publication scales with the
	// fan: one transmission per matching next hop at the ingress, plus
	// one per admitted churn/flash subscriber whose filter the message
	// matches — a hot message during a correlated burst is many
	// link-seconds of work, not one.
	fan := 1
	if tbl := a.p.Tables[m.Ingress]; tbl != nil {
		a.matched = tbl.MatchAppendWith(&a.scratch, m, a.matched[:0])
		if n := len(a.matched); n > fan {
			fan = n
		}
	}
	if len(a.active) > 0 {
		a.scratch.Resolve(&m.Attrs)
		for _, sub := range a.active {
			if sub.Filter.MatchResolved(&a.scratch, &m.Attrs) {
				fan++
			}
		}
	}
	// Each matched flow travels ~worst.links hops, so the aggregate
	// work is fan·links transmissions, served by `parallel` links at
	// once.
	hops := a.worst.links
	if hops < 1 {
		hops = 1
	}
	shared := vtime.Millis(m.SizeKB * a.worst.outMean * float64(fan*hops) / a.parallel)

	// Hard saturation: the modeled queue — per-ingress or the shared
	// bottleneck — is as deep as the shed threshold; no bound survives
	// that backlog, so reject outright.
	if service > 0 && float64(ld.backlog)/float64(service) >= float64(a.cfg.MaxQueue) {
		a.p.Metrics.PubRejected(bound)
		return false
	}
	if shared > 0 && float64(a.worst.backlog)/float64(shared) >= float64(a.cfg.MaxQueue) {
		a.p.Metrics.PubRejected(bound)
		return false
	}

	wait := ld.wait(service)
	if w := a.worst.wait(shared); w > wait {
		wait = w
	}
	relaxed, outcome := renegotiateBound(bound-wait, ld.links, ld.rate, m.SizeKB,
		a.p.Cfg.Params.PD, a.cfg.SuccessTarget, a.cfg.MaxRelaxFactor)
	if bound > 0 && bound <= wait {
		// The modeled wait already consumes the whole bound; the slack
		// test above degenerates, so reject explicitly.
		outcome = boundRejected
	}
	switch outcome {
	case boundRelaxed:
		// The relaxed bound is feasible *after* the modeled wait; the
		// publisher-visible bound includes it. Rewriting Allowed on the
		// shared message makes both backends deliver under the same
		// relaxed contract. SSD deadlines belong to subscribers and are
		// not rewritten — the relaxation is ledger-only there.
		if a.p.Cfg.Scenario != msg.SSD && m.Allowed > 0 {
			m.Allowed = relaxed + wait
		}
		ld.backlog += service
		a.worst.backlog += shared
		a.p.Metrics.PubRelaxed(bound)
		return true
	case boundRejected:
		a.p.Metrics.PubRejected(bound)
		return false
	default:
		ld.backlog += service
		a.worst.backlog += shared
		a.p.Metrics.PubAdmitted(bound)
		return true
	}
}

// decideSub gates one subscription arrival (flash-crowd floods ride in
// through the same churn machinery). A subscriber whose applicable
// bound is infeasible on the system's representative worst path — after
// discounting the worst current ingress backlog — is turned away: under
// a correlated subscribe burst the routing flood itself is load, and
// admitting a subscriber whose bound cannot be met only manufactures
// future SLO misses.
func (a *admission) decideSub(sub *msg.Subscription, t vtime.Millis) bool {
	bound := a.p.applicableBound(sub)
	if bound <= 0 {
		return true
	}
	var wait vtime.Millis
	for _, ld := range a.loads {
		ld.drain(t)
		if ld.backlog > wait {
			wait = ld.backlog
		}
	}
	a.worst.drain(t)
	if a.worst.backlog > wait {
		wait = a.worst.backlog
	}
	if bound <= wait {
		return false
	}
	_, outcome := renegotiateBound(bound-wait, a.worst.links, a.worst.rate,
		a.p.Cfg.Workload.SizeKB, a.p.Cfg.Params.PD,
		a.cfg.SuccessTarget, a.cfg.MaxRelaxFactor)
	return outcome != boundRejected
}

// admitWorkload runs the admission sweep over the plan: publications
// and subscription events interleaved in time order. Mutates Plan.Pubs,
// Plan.SubEvents and the shared messages in place; feeds the SLO ledger
// on Plan.Metrics. No-op unless Cfg.Admission.Enabled.
func (p *Plan) admitWorkload() {
	if !p.Cfg.Admission.Enabled {
		return
	}
	a := newAdmission(p)

	// Decisions are made in publication-time order, but Plan.Pubs keeps
	// its per-publisher generation order — so decide over a sorted view
	// and filter the original in place.
	order := make([]*msg.Message, len(p.Pubs))
	copy(order, p.Pubs)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Published < order[j].Published })

	admitted := make(map[*msg.Message]bool, len(order))
	rejectedSubs := make(map[msg.SubID]bool)
	subsRejected := 0
	ei := 0
	decideEvent := func(ev workload.SubEvent) {
		if ev.Unsub {
			delete(a.active, ev.Sub.ID)
			return
		}
		if a.decideSub(ev.Sub, ev.At) {
			a.active[ev.Sub.ID] = ev.Sub
		} else {
			rejectedSubs[ev.Sub.ID] = true
			subsRejected++
		}
	}
	for _, m := range order {
		for ei < len(p.SubEvents) && p.SubEvents[ei].At <= m.Published {
			decideEvent(p.SubEvents[ei])
			ei++
		}
		admitted[m] = a.decide(m)
	}
	for ; ei < len(p.SubEvents); ei++ {
		decideEvent(p.SubEvents[ei])
	}

	kept := p.Pubs[:0]
	for _, m := range p.Pubs {
		if admitted[m] {
			kept = append(kept, m)
		}
	}
	p.Pubs = kept

	if len(rejectedSubs) > 0 {
		events := p.SubEvents[:0]
		for _, ev := range p.SubEvents {
			if !rejectedSubs[ev.Sub.ID] {
				events = append(events, ev)
			}
		}
		p.SubEvents = events
	}
	if subsRejected > 0 {
		p.Metrics.Count(metrics.SubsRejected, subsRejected)
	}
}
