package runtime

import (
	"sort"
	"sync"

	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// FailureDetector is the backend-agnostic half of the self-healing
// control plane. Backends feed it arc-granular liveness evidence — the
// live overlay from per-link heartbeat monitors, the simulator from
// detection events scheduled on virtual time — and it turns each piece
// of evidence into detection accounting plus a topology repair: prune
// the dead arcs from a working copy of the overlay, re-run the cached
// per-ingress shortest paths on the surviving graph, diff routes against
// the previous generation, and re-flood only the subscriptions whose
// delivery paths actually moved. With renegotiation enabled it replays
// the admission math on every rerouted path, keeping, relaxing or
// rejecting the delay bound.
//
// The unit of evidence is the directed arc from→to: "to can no longer
// hear from". A broker crash is the batch of all its outgoing arcs —
// which is exactly what a crash looks like from the live overlay, where
// each surviving neighbor independently reports the one inbound arc it
// monitors.
type FailureDetector struct {
	mu sync.Mutex
	p  *Plan
	// lock serializes a table mutation against broker id's concurrent
	// matchers; nil means the caller is single-threaded (simulator).
	lock func(id msg.NodeID, fn func())

	dead map[[2]msg.NodeID]bool
	// prev is the installer whose routes are currently in the tables;
	// each repair diffs against it and replaces it.
	prev *routing.Installer
}

// NewFailureDetector builds the detector for one deployed plan; it
// counts on the plan's collector. lock is the backend's per-broker table
// write lock (nil for single-threaded backends).
func NewFailureDetector(p *Plan, lock func(id msg.NodeID, fn func())) *FailureDetector {
	return &FailureDetector{
		p:    p,
		lock: lock,
		dead: make(map[[2]msg.NodeID]bool),
		prev: routing.NewInstaller(p.Overlay, routing.Options{Rates: p.Beliefs, Multipath: p.Cfg.Multipath}),
	}
}

// Silences returns the directed arcs fault f silences and the instant it
// strikes: a broker crash silences every arc out of the dead broker, a
// link outage its own arc, any other fault none. Each backend schedules
// its own detection of them; this is what both detect.
func (p *Plan) Silences(f Fault) (arcs [][2]msg.NodeID, at vtime.Millis) {
	switch f := f.(type) {
	case BrokerCrash:
		for _, e := range p.Overlay.Graph.Neighbors(f.ID) {
			arcs = append(arcs, [2]msg.NodeID{f.ID, e.To})
		}
		return arcs, f.At
	case LinkDown:
		return [][2]msg.NodeID{{f.From, f.To}}, f.Start
	}
	return nil, 0
}

// ArcDead reports one directed arc as confirmed dead. faultAt is when
// the underlying fault struck and detectedAt when the detector confirmed
// it; the difference is the detection latency.
func (d *FailureDetector) ArcDead(from, to msg.NodeID, faultAt, detectedAt vtime.Millis) {
	d.ArcsDead([][2]msg.NodeID{{from, to}}, faultAt, detectedAt)
}

// ArcsDead reports a batch of dead arcs sharing one fault instant (a
// broker crash seen from all its neighbors at once). Already-dead arcs
// are ignored; one repair covers the whole batch.
func (d *FailureDetector) ArcsDead(arcs [][2]msg.NodeID, faultAt, detectedAt vtime.Millis) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fresh := 0
	for _, arc := range arcs {
		if d.dead[arc] {
			continue
		}
		d.dead[arc] = true
		fresh++
		lat := detectedAt - faultAt
		if lat < 0 {
			lat = 0
		}
		d.p.Metrics.Detection(lat)
	}
	if fresh > 0 {
		d.repair()
	}
}

// BrokerRestarted reports that a crashed broker came back with durable
// state intact: every piece of dead-arc evidence rooted at it is
// withdrawn in one batch and a single repair moves routes back through
// the rejoined node. The restarted broker reinstalls its own table from
// its log before this is called, so the repair's installs land on a
// warm table rather than re-deriving it from scratch. prepare, when
// non-nil, runs under the detector's mutex before the evidence is
// withdrawn — the live backend swaps the plan's broker and table maps
// to the fresh incarnation there, serialized against concurrent
// repairs (the single-threaded simulator passes nil and swaps first).
func (d *FailureDetector) BrokerRestarted(id msg.NodeID, prepare func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if prepare != nil {
		prepare()
	}
	fresh := 0
	for arc := range d.dead {
		if arc[0] == id {
			delete(d.dead, arc)
			fresh++
		}
	}
	if fresh > 0 {
		d.repair()
	}
}

// ArcRestored reports a previously dead arc as live again (a transient
// link outage ending). The repair moves affected routes back.
func (d *FailureDetector) ArcRestored(from, to msg.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	arc := [2]msg.NodeID{from, to}
	if !d.dead[arc] {
		return
	}
	delete(d.dead, arc)
	d.repair()
}

// DeadArcs returns the current evidence set in deterministic order
// (diagnostics and tests).
func (d *FailureDetector) DeadArcs() [][2]msg.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	arcs := make([][2]msg.NodeID, 0, len(d.dead))
	for arc := range d.dead {
		arcs = append(arcs, arc)
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i][0] != arcs[j][0] {
			return arcs[i][0] < arcs[j][0]
		}
		return arcs[i][1] < arcs[j][1]
	})
	return arcs
}

// survivingGraph derives the overlay that remains under the current
// evidence: the original graph minus every dead arc, with node death
// inferred — a broker none of whose outgoing arcs survive is gone, so
// its incoming arcs are pruned too (they carry no extra detection
// accounting; nothing can be delivered through a dead node either way).
func (d *FailureDetector) survivingGraph() *topology.Graph {
	g := d.p.Overlay.Graph.Clone()
	for arc := range d.dead {
		g.RemoveArc(arc[0], arc[1])
	}
	// Iterate to a fixpoint: pruning a dead node's incoming arcs can
	// strand a neighbor in turn.
	for changed := true; changed; {
		changed = false
		for id := 0; id < g.N(); id++ {
			nid := msg.NodeID(id)
			if g.Degree(nid) > 0 || d.p.Overlay.Graph.Degree(nid) == 0 {
				continue
			}
			for from := 0; from < g.N(); from++ {
				if g.RemoveArc(msg.NodeID(from), nid) {
					changed = true
				}
			}
		}
	}
	return g
}

// repair recomputes routing on the surviving graph and re-floods the
// subscriptions whose paths moved. Caller holds d.mu.
func (d *FailureDetector) repair() {
	p := d.p
	surviving := *p.Overlay
	surviving.Graph = d.survivingGraph()
	next := routing.NewInstaller(&surviving, routing.Options{Rates: p.Beliefs, Multipath: p.Cfg.Multipath})

	rerouted, kept, relaxed, rejected, reflooded := 0, 0, 0, 0, 0
	for _, sub := range p.Subs {
		if p.Agg != nil && !p.Agg.Agg.IsForwarded(sub.ID) {
			// Covering aggregation: members and masked subscriptions hold
			// no forwarding entries of their own — their representative's
			// re-flood carries them, and their local delivery entries at
			// the edge are terminal (path-independent), so repair leaves
			// them untouched.
			continue
		}
		// Diff this subscription's delivery paths per ingress.
		changedPairs := make(map[msg.NodeID]bool)
		for _, src := range p.Overlay.Ingress {
			if !pathSetsEqual(d.prev.Paths(src, sub.Edge), next.Paths(src, sub.Edge)) {
				changedPairs[src] = true
			}
		}
		if len(changedPairs) == 0 {
			continue
		}

		// Re-flood: drop the subscription everywhere, reinstall every
		// ingress route on the surviving graph (unchanged routes come back
		// verbatim; changed ones carry the renegotiated floor). A
		// representative's covering group rides across the move.
		var groups map[msg.NodeID]*routing.Group
		if p.Agg != nil {
			groups = d.takeGroups(sub.ID)
		}
		d.removeSub(sub.ID)
		installed := 0
		for _, src := range p.Overlay.Ingress {
			paths := next.Paths(src, sub.Edge)
			if changedPairs[src] {
				if len(paths) > 0 {
					rerouted++
				} else if p.Cfg.Recovery.Renegotiate {
					rejected++
				}
			}
			for pathID, path := range paths {
				var floor vtime.Millis
				if changedPairs[src] && p.Cfg.Recovery.Renegotiate {
					outcome := boundKept
					floor, outcome = d.renegotiatePath(sub, path)
					switch outcome {
					case boundKept:
						kept++
					case boundRelaxed:
						relaxed++
					case boundRejected:
						rejected++
						continue // path inadmissible: do not install
					}
				}
				d.installPath(path, sub, src, pathID, floor)
				installed += len(path)
			}
		}
		if installed > 0 {
			reflooded++
		}
		if groups != nil {
			d.restoreGroups(sub.ID, groups)
		}
	}

	d.prev = next
	if rerouted > 0 {
		d.p.Metrics.Count(metrics.ReroutedPaths, rerouted)
	}
	d.p.Metrics.Count(metrics.BoundsKept, kept)
	d.p.Metrics.Count(metrics.BoundsRelaxed, relaxed)
	d.p.Metrics.Count(metrics.BoundsRejected, rejected)
	if reflooded > 0 {
		d.p.Metrics.Count(metrics.RefloodedSubs, reflooded)
	}
}

// renegotiatePath applies the admission math to one rerouted path.
func (d *FailureDetector) renegotiatePath(sub *msg.Subscription, path []msg.NodeID) (vtime.Millis, renegotiation) {
	p := d.p
	links := len(path) - 1
	parts := make([]stats.Normal, 0, links)
	for i := 0; i < links; i++ {
		parts = append(parts, p.Beliefs(path[i], path[i+1]))
	}
	rate := stats.SumNormal(parts...)
	return renegotiateBound(p.applicableBound(sub), links, rate, p.Cfg.Workload.SizeKB,
		p.Cfg.Params.PD, p.Cfg.Recovery.SuccessTarget, p.Cfg.Recovery.MaxRelaxFactor)
}

// takeGroups snapshots a representative's covering group per table
// before a remove-and-reinstall (tables where it holds no live entries
// are omitted).
func (d *FailureDetector) takeGroups(id msg.SubID) map[msg.NodeID]*routing.Group {
	groups := make(map[msg.NodeID]*routing.Group)
	for nid, t := range d.p.Tables {
		get := func() {
			if g := t.TakeGroup(id); g != nil {
				groups[nid] = g
			}
		}
		if d.lock != nil {
			d.lock(nid, get)
		} else {
			get()
		}
	}
	return groups
}

// restoreGroups stamps the snapshotted groups back onto the reinstalled
// entries. A representative whose table lost every route simply drops
// its group there — the covered subscriptions share the coverer's fate.
func (d *FailureDetector) restoreGroups(id msg.SubID, groups map[msg.NodeID]*routing.Group) {
	for nid, g := range groups {
		t := d.p.Tables[nid]
		if d.lock != nil {
			d.lock(nid, func() { t.SetGroup(id, g) })
		} else {
			t.SetGroup(id, g)
		}
	}
}

// removeSub drops one subscription from every table, excluding each
// broker's concurrent matchers through the backend lock.
func (d *FailureDetector) removeSub(id msg.SubID) {
	for nid, t := range d.p.Tables {
		if d.lock != nil {
			d.lock(nid, func() { t.RemoveSub(id) })
		} else {
			t.RemoveSub(id)
		}
	}
}

// installPath writes the subscription's entries along one path, carrying
// the renegotiated floor.
func (d *FailureDetector) installPath(path []msg.NodeID, sub *msg.Subscription, src msg.NodeID, pathID int, floor vtime.Millis) {
	for i := range path {
		e := routing.EntryAt(path, i, sub, src, pathID, d.p.Beliefs)
		e.Relaxed = floor
		nid := path[i]
		t := d.p.Tables[nid]
		if d.lock != nil {
			d.lock(nid, func() { t.Add(e) })
		} else {
			t.Add(e)
		}
	}
}

// pathSetsEqual compares two delivery path sets element-wise.
func pathSetsEqual(a, b [][]msg.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
