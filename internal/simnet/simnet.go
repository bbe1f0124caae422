// Package simnet is the discrete-event backend of the unified runtime
// layer (internal/runtime): a thin Transport that realizes a
// runtime.Plan on the deterministic event engine. All deployment wiring
// — topology, routing tables, brokers, workload, fault validation,
// metrics — lives in the plan. The hop's contract (sequence numbers,
// adversary, link-time draws, reorder and base rules, dedup) lives in
// runtime/link.go and the charging of broker outcomes to the ledger
// (deliveries, duplicates, arrival, queue and shed drops, session
// resumes, and crash losses: the queues a crash empties and the messages
// reaching a dead broker) in runtime/charge.go, both shared with the
// live backend; this package only turns link transfers and processing
// delays into events on a virtual clock.
// runtime.Run(cfg, simnet.Transport{}) reproduces one data point of the
// paper's evaluation.
//
// The engine runs one event at a time, so a network processes every
// broker's arrivals through one shared broker.Processor (each broker
// keeps its own queues and dedup state), and its links are one slab,
// each link its own completion event: what a cell allocates beyond its
// plan is per message, not per broker or link.
package simnet

import (
	"slices"
	"sync"

	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/durable"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/runtime"
	"bdps/internal/sim"
	"bdps/internal/trace"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// Transport is the discrete-event backend: deterministic, virtual-time,
// single-threaded.
type Transport struct{}

// Name implements runtime.Transport.
func (Transport) Name() string { return "sim" }

// Deterministic implements runtime.Transport: simulation runs are exactly
// reproducible from their config, which is what lets the experiment
// harness cache them.
func (Transport) Deterministic() bool { return true }

// Deploy implements runtime.Transport.
func (Transport) Deploy(p *runtime.Plan) (runtime.Deployment, error) { return deploy(p) }

// link is one directed overlay link at runtime: the two halves of the
// hop both backends run (runtime/link.go), plus this backend's I/O. At
// most one transfer is in flight per link, so the link itself is its
// completion event (Run), scheduled for every transfer.
// burst is the transfer's ordered chains (the sending half's scratch,
// untouched until the next transfer starts) and epoch the sender's
// incarnation when it left: a transfer still in flight when its sender
// crashes and restarts arrives stale. q is the sender's output queue
// toward to, looked up on the first send and again after a restart
// swaps the broker.
type link struct {
	n        *Network
	from, to msg.NodeID
	busy     bool
	down     bool
	q        *core.Queue
	send     runtime.LinkSend
	recv     runtime.LinkRecv
	burst    []runtime.Chain
	epoch    uint32
	scratch  []*msg.Message
}

// simSession is the simulator's model of one suspended subscriber
// session: the bounded replay ring the live edge broker retains, with
// oldest-first eviction — deadline data only, since nothing is rewritten
// to a wire here. A session starts at its suspension and ends at its
// resume, so everything it retains lies past the resume token.
type simSession struct {
	ring []simDelivery
}

// simDelivery is one retained delivery's deadline data, what the resume
// gate reads.
type simDelivery struct {
	published, allowed vtime.Millis
}

// record retains one delivery.
func (s *simSession) record(published, allowed vtime.Millis) {
	d := simDelivery{published: published, allowed: allowed}
	if len(s.ring) >= runtime.SessionRingLimit {
		copy(s.ring, s.ring[1:])
		s.ring[len(s.ring)-1] = d
	} else {
		s.ring = append(s.ring, d)
	}
}

// Network is a deployed simulation, stepped by its engine. It implements
// runtime.Deployment; Transport.Deploy returns one.
type Network struct {
	Engine *sim.Engine
	// Brokers is indexed by broker id, like every per-broker slice below:
	// a plan's brokers are the overlay graph's nodes 0..N-1, and the
	// per-reception path reads these on every event.
	Brokers   []*broker.Broker
	Collector *metrics.Collector

	// links[from] lists the links leaving one broker (a handful: the
	// node's degree), searched by far end; every node's list is a window
	// of one slab.
	links  [][]link
	dead   []bool
	tracer trace.Tracer
	charge runtime.Charge
	// proc is the one broker.Processor of the network: the engine runs
	// one event at a time, so every broker processes through the same
	// scratch.
	proc broker.Processor

	// The plan (its config, its population, and the broker/table maps a
	// restart swaps), then crash-restart durability: the repair engine,
	// per-broker incarnation epochs, the deploy-time durable snapshots
	// modeling each restartable broker's WAL, and the suspended
	// subscriber sessions.
	p        *runtime.Plan
	det      *runtime.FailureDetector
	epochs   []uint32
	walSnaps map[msg.NodeID][]durable.Entry
	sessions map[msg.SubID]*simSession
}

// deploy realizes a plan on a fresh engine: links with the plan's
// samplers and streams, the plan's brokers, and the fault schedule as
// timed events.
func deploy(p *runtime.Plan) (*Network, error) {
	nodes := p.Overlay.Graph.N()
	n := &Network{
		Engine:    sim.New(),
		Brokers:   make([]*broker.Broker, nodes),
		Collector: p.Metrics,
		links:     make([][]link, nodes),
		dead:      make([]bool, nodes),
		tracer:    p.Cfg.Tracer,
		charge:    runtime.NewCharge(p.Metrics, p.Cfg.Tracer),
		p:         p,
		epochs:    make([]uint32, nodes),
		walSnaps:  make(map[msg.NodeID][]durable.Entry),
		sessions:  make(map[msg.SubID]*simSession),
	}
	if n.tracer == nil {
		n.tracer = trace.Nop{}
	}
	for id, b := range p.Brokers {
		n.Brokers[id] = b
	}
	// The links, grouped by sender in plan order, in one slab: each
	// node's window is sized by its out-degree before any is filled.
	slab := make([]link, len(p.Links))
	next := make([]int, nodes+1)
	for _, pl := range p.Links {
		next[pl.From+1]++
	}
	for id := range nodes {
		next[id+1] += next[id]
		n.links[id] = slab[next[id]:next[id]:next[id+1]]
	}
	for _, pl := range p.Links {
		out := append(n.links[pl.From], link{n: n, from: pl.From, to: pl.To})
		l := &out[len(out)-1]
		l.send = runtime.NewLinkSend(pl.From, pl.To, p.LinkSpec(pl), p.Cfg.Tracer)
		l.recv = runtime.NewLinkRecv(p.Cfg.Reliability.Window, n.Collector)
		n.links[pl.From] = out
	}

	// Subscription churn becomes timed events mutating the routing
	// tables in place; each table keeps its matcher (index or
	// bound-column scan) current under the mutation, with no rebuild.
	if len(p.SubEvents) > 0 {
		if p.Agg != nil {
			// Aggregated churn: every event goes through the plan's
			// covering driver, so a subscribe covered by a resident
			// representative mutates one edge table instead of flooding
			// entries everywhere, and an unsubscribe re-exposes whatever
			// the departing filter was masking.
			for i := range p.SubEvents {
				ev := p.SubEvents[i]
				n.Engine.At(ev.At, func() {
					if ev.Unsub {
						p.Agg.Unsubscribe(ev.Sub.ID)
					} else {
						p.Agg.Subscribe(ev.Sub)
					}
					n.logChurn(ev)
				})
			}
		} else {
			// One installer for the whole schedule: Dijkstra runs once per
			// ingress, not once per churn event. p.Tables is current
			// across restarts.
			ins := routing.NewInstaller(p.Overlay, routing.Options{
				Rates: p.Beliefs, Multipath: p.Cfg.Multipath,
			})
			for i := range p.SubEvents {
				ev := p.SubEvents[i]
				n.Engine.At(ev.At, func() {
					if ev.Unsub {
						routing.RemoveSubAll(p.Tables, ev.Sub.ID)
					} else {
						ins.Install(p.Tables, ev.Sub)
					}
					n.logChurn(ev)
				})
			}
		}
	}

	// Faults are validated by the plan; here they only become events.
	// With recovery enabled, each fault also schedules the detection
	// event a live heartbeat monitor would produce: confirmation exactly
	// HeartbeatTimeout after the fault struck, one detection per directed
	// arc it silenced (Plan.Silences) — which is what the per-neighbor
	// monitors of the live overlay observe, so the two backends account
	// detections identically.
	var det *runtime.FailureDetector
	if p.Cfg.Recovery.Detect {
		det = runtime.NewFailureDetector(p, nil)
	}
	n.det = det
	rec := p.Cfg.Recovery

	// Brokers with a scheduled restart get their WAL modeled now: the
	// durable snapshot a live deployment checkpoints at deploy time.
	// Churn events then extend it as the live node's log (logChurn).
	for _, f := range p.Cfg.Faults {
		if r, ok := f.(runtime.BrokerRestart); ok {
			n.walSnaps[r.ID] = p.SnapshotDurable(r.ID)
		}
	}
	for _, f := range p.Cfg.Faults {
		switch f := f.(type) {
		case runtime.LinkDown:
			l := n.link(f.From, f.To)
			n.Engine.At(f.Start, func() { l.down = true })
			n.Engine.At(f.End, func() {
				l.down = false
				n.kick(f.From, f.To)
			})
		case runtime.LinkLoss:
			// Nothing to arm: the adversary is consulted inline on every
			// transmission (kick), gated by its own [Start, End) window.
		case runtime.BrokerCrash:
			n.Engine.At(f.At, func() {
				n.dead[f.ID] = true
				n.charge.CrashQueues(n.Brokers[f.ID], f.At)
			})
		case runtime.BrokerRestart:
			n.Engine.At(f.At, func() { n.restartBroker(f.ID) })
		case runtime.SessionDown:
			n.Engine.At(f.Start, func() {
				n.sessions[f.Sub] = &simSession{}
			})
			n.Engine.At(f.End, func() { n.resumeSession(f.Sub) })
		}
		if det == nil {
			continue
		}
		// An outage shorter than the timeout never reaches the dead state
		// — the monitor hears a heartbeat again in time — and one that
		// does is restored a heartbeat interval after it ends.
		arcs, at := p.Silences(f)
		confirmed := at + rec.HeartbeatTimeout
		outage, isOutage := f.(runtime.LinkDown)
		if len(arcs) == 0 || (isOutage && outage.End <= confirmed) {
			continue
		}
		n.Engine.At(confirmed, func() { det.ArcsDead(arcs, at, confirmed) })
		if isOutage {
			n.Engine.At(outage.End+rec.HeartbeatInterval, func() {
				det.ArcRestored(outage.From, outage.To)
			})
		}
	}
	return n, nil
}

// logChurn records one churn event in the modeled WAL of every
// restartable broker that is up, as a live node logs the floods it
// admits and retracts; a dead broker's log keeps what it held.
func (n *Network) logChurn(ev workload.SubEvent) {
	for id, wal := range n.walSnaps {
		if n.dead[id] {
			continue
		}
		if ev.Unsub {
			n.walSnaps[id] = slices.DeleteFunc(wal, func(e durable.Entry) bool { return e.Sub.ID == ev.Sub.ID })
			continue
		}
		for _, e := range n.p.Tables[id].SubEntries(ev.Sub.ID, nil) {
			wal = append(wal, runtime.DurableEntry(e))
		}
		n.walSnaps[id] = wal
	}
}

// restartBroker brings a crashed broker back as a fresh incarnation:
// epoch bumped, broker and table rebuilt from the modeled WAL (empty
// queues — the crash took them), inbound reliable-channel state reset
// (a live rejoin opens new connections), and the crash evidence
// withdrawn from the repair engine so routes move back through the
// rejoined node. The broker's outbound send sequences survive in the
// links themselves — exactly the watermarks a live WAL restores, so
// neighbor dedup state never mistakes a post-restart frame for a replay.
func (n *Network) restartBroker(id msg.NodeID) {
	n.dead[id] = false
	n.epochs[id]++
	subs, err := n.p.RestartBroker(id, n.walSnaps[id])
	if err != nil {
		// The original deployment built this same broker config; a
		// rebuild cannot fail without the plan being unusable. Leave the
		// broker dead rather than half-alive.
		n.dead[id] = true
		return
	}
	n.Brokers[id] = n.p.Brokers[id]
	if subs > 0 {
		n.Collector.Count(metrics.RestartReplayedSubs, subs)
	}
	for _, out := range n.links {
		for i := range out {
			if out[i].to == id {
				out[i].recv = runtime.NewLinkRecv(n.p.Cfg.Reliability.Window, n.Collector)
			}
		}
	}
	for i := range n.links[id] {
		n.links[id][i].q = nil
	}
	if n.det != nil {
		n.det.BrokerRestarted(id, nil)
	}
}

// resumeSession ends one suspended subscriber session: the resume
// accounting of a live client redialing with its token — retained
// deliveries past the token replayed unless runtime.ReplayExpired.
func (n *Network) resumeSession(id msg.SubID) {
	s, ok := n.sessions[id]
	if !ok {
		return
	}
	now := n.Engine.Now()
	replayed, expired := 0, 0
	for _, d := range s.ring {
		if runtime.ReplayExpired(d.published, d.allowed, now) {
			expired++
		} else {
			replayed++
		}
	}
	n.charge.Resume(replayed, expired)
	delete(n.sessions, id)
}

// Subscriptions exposes the generated population (for tests and reports).
func (n *Network) Subscriptions() []*msg.Subscription { return n.p.Subs }

// Inject implements runtime.Deployment: every publication becomes one
// event at its virtual Published instant. Events live in one slab
// instead of one closure each; the slab is sized up front so the element
// pointers handed to the engine stay stable.
func (n *Network) Inject(pubs []*msg.Message) error {
	injects := make([]injectEvent, len(pubs))
	for i, m := range pubs {
		injects[i] = injectEvent{n: n, m: m}
		n.Engine.AtRun(m.Published, &injects[i])
	}
	return nil
}

// Drain implements runtime.Deployment: run the engine until no events
// remain (all publications done and all queues drained).
func (n *Network) Drain() error {
	n.Engine.Run()
	return nil
}

// PeakQueue implements runtime.Deployment.
func (n *Network) PeakQueue() int {
	peak := 0
	for _, b := range n.Brokers {
		if p := b.PeakQueue(); p > peak {
			peak = p
		}
	}
	return peak
}

// Close implements runtime.Deployment. The simulator holds no external
// resources.
func (n *Network) Close() error { return nil }

// injectEvent is a pre-scheduled publication (one slab element per
// message; see Inject).
type injectEvent struct {
	n *Network
	m *msg.Message
}

// Run implements sim.Runner.
func (ev *injectEvent) Run() { ev.n.inject(ev.m) }

// procEvent is a pooled processing event: arrive schedules one after the
// processing delay, Run recycles it before dispatching.
type procEvent struct {
	n  *Network
	m  *msg.Message
	at msg.NodeID
}

var procPool = sync.Pool{New: func() any { return new(procEvent) }}

// Run implements sim.Runner.
func (ev *procEvent) Run() {
	n, m, at := ev.n, ev.m, ev.at
	*ev = procEvent{}
	procPool.Put(ev)
	n.process(m, at)
}

// inject delivers a freshly published message to its ingress broker.
// Publication accounting happened in the runtime driver; here the event
// only enters the network (and the trace).
func (n *Network) inject(m *msg.Message) {
	n.tracer.Emit(trace.Event{T: n.Engine.Now(), Kind: trace.Publish,
		MsgID: uint64(m.ID), Broker: int32(m.Ingress)})
	n.arrive(m, m.Ingress)
}

// arrive counts a broker reception and schedules processing after PD.
// Arrivals at crashed brokers are lost.
func (n *Network) arrive(m *msg.Message, at msg.NodeID) {
	if n.dead[at] {
		n.charge.Crashed(at, nil, m, 0, n.Engine.Now())
		return
	}
	n.Collector.Count(metrics.Receptions, 1)
	n.tracer.Emit(trace.Event{T: n.Engine.Now(), Kind: trace.Arrive,
		MsgID: uint64(m.ID), Broker: int32(at)})
	ev := procPool.Get().(*procEvent)
	ev.n, ev.m, ev.at = n, m, at
	n.Engine.AfterRun(n.p.Cfg.Params.PD, ev)
}

// process runs the broker logic and kicks any links that gained work.
func (n *Network) process(m *msg.Message, at msg.NodeID) {
	if n.dead[at] {
		n.charge.Crashed(at, nil, m, 0, n.Engine.Now())
		return
	}
	now := n.Engine.Now()
	res := n.Brokers[at].ProcessWith(&n.proc, m, now)
	n.charge.Result(at, m, &res, now)
	for _, d := range res.Deliveries {
		if s, ok := n.sessions[d.SubID]; ok {
			// A suspended session retains the delivery for the resume
			// replay, exactly as the live edge broker's session ring does.
			s.record(d.Published, d.Allowed)
		}
	}
	for _, hop := range res.EnqueuedHops {
		n.tracer.Emit(trace.Event{T: now, Kind: trace.Enqueue,
			MsgID: uint64(m.ID), Broker: int32(at), Peer: int32(hop)})
		n.kick(at, hop)
	}
}

// link returns the directed link between two brokers, or nil.
func (n *Network) link(from, to msg.NodeID) *link {
	out := n.links[from]
	for i := range out {
		if out[i].to == to {
			return &out[i]
		}
	}
	return nil
}

// kick starts a transmission on the (from → to) link if it is idle, up,
// and work is queued. Each completion re-kicks, draining the queue.
func (n *Network) kick(from, to msg.NodeID) {
	if l := n.link(from, to); l != nil {
		n.send(l)
	}
}

// send plays one transfer — a burst of one entry, plus the successor a
// reorder decision owes — through the link's sending half, and schedules
// its completion after the burst's link time. Only surviving frames
// travel; lost attempts consume time and nothing else — exactly what the
// live shim does with mangled FrameDataDrop writes.
func (n *Network) send(l *link) {
	from, to := l.from, l.to
	if l.busy || l.down || n.dead[from] {
		return
	}
	b := n.Brokers[from]
	if l.q == nil {
		l.q = b.Queue(to)
	}
	now := n.Engine.Now()
	pop := func() *core.Entry {
		e, drops := l.q.PopNext(b.Strategy(), now, b.Params())
		n.charge.Drops(from, drops, now)
		return e
	}
	e := pop()
	if e == nil {
		return
	}
	tx, _, swap := l.send.Resolve(e, now)
	e.Release()
	if swap {
		if e2 := pop(); e2 != nil {
			tx, _, _ = l.send.Resolve(e2, now)
			e2.Release()
		}
	}
	l.burst, l.epoch = l.send.Order(), n.epochs[from]
	l.send.Account(n.Collector)
	l.busy = true
	n.Engine.AfterRun(tx, l)
}

// Run implements sim.Runner: the link's transfer in flight completes.
func (l *link) Run() { l.n.linkDone(l) }

// linkDone completes one transfer: its surviving frames — the delivering
// copy of each delivered chain, and its duplicate — run through the
// link's receiving half in wire order (a dead incarnation's are
// discarded, as a live node discards a reborn neighbor's stale frames),
// in-order messages arrive at the far end, and the link immediately
// tries to pick up more queued work.
func (n *Network) linkDone(l *link) {
	l.busy = false
	deliver := l.scratch[:0]
	for i := range l.burst {
		c := &l.burst[i]
		if !c.Out.Deliver {
			continue
		}
		// The delivering copy and its duplicate; lost attempts only
		// cost link time.
		for k := c.Frames() - c.Drops(); k > 0; k-- {
			if l.recv.Stale(l.epoch, n.epochs[l.from]) {
				continue
			}
			deliver, _ = l.recv.Accept(c.Seq, c.Base, c.M, deliver[:0])
			for _, m := range deliver {
				n.arrive(m, l.to)
			}
		}
	}
	l.scratch = deliver[:0]
	n.send(l)
}
