package livenet

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// Transport is the live TCP backend of the unified runtime layer: it
// deploys a runtime.Plan as an in-process loopback cluster (one Node per
// broker, static routing tables, plan link pacers), paces the plan's
// publication schedule in compressed wall time, and waits for the
// overlay to quiesce. Wall-clock jitter makes live runs statistically —
// not bitwise — reproducible, so the experiment cache never caches them.
type Transport struct{}

// Name implements runtime.Transport.
func (Transport) Name() string { return "live" }

// Deterministic implements runtime.Transport.
func (Transport) Deterministic() bool { return false }

// Deploy implements runtime.Transport.
func (Transport) Deploy(p *runtime.Plan) (runtime.Deployment, error) {
	// The churn driver floods each subscribe event from its edge broker:
	// one the wire cannot carry is refused here, not lost mid-run.
	var body []byte
	for _, ev := range p.SubEvents {
		if ev.Unsub {
			continue
		}
		var err error
		if body, err = msg.AppendSubscription(body[:0], ev.Sub); err != nil {
			return nil, fmt.Errorf("livenet: subscribe event for subscription %d: %w", ev.Sub.ID, err)
		}
	}
	cc := ClusterConfig{Plan: p}
	// A plan that schedules broker restarts needs durable state to
	// recover from: provision a throwaway state root for the run (the
	// deployment removes it on Close).
	stateRoot := ""
	for _, f := range p.Cfg.Faults {
		if _, ok := f.(runtime.BrokerRestart); ok {
			dir, err := os.MkdirTemp("", "bdps-state-")
			if err != nil {
				return nil, err
			}
			stateRoot, cc.StateRoot = dir, dir
			break
		}
	}
	// With recovery on, every node heartbeats its links and the monitors'
	// liveness events funnel into one repair goroutine that owns the
	// failure detector (started below, once the cluster exists).
	var events chan PeerEvent
	if p.Cfg.Recovery.Detect {
		events = make(chan PeerEvent, 256)
		cc.Heartbeat = HeartbeatConfig{
			Interval: p.Cfg.Recovery.HeartbeatInterval,
			Timeout:  p.Cfg.Recovery.HeartbeatTimeout,
		}
		cc.OnPeerEvent = func(ev PeerEvent) { events <- ev }
	}
	c, err := StartCluster(cc)
	if err != nil {
		if stateRoot != "" {
			os.RemoveAll(stateRoot)
		}
		return nil, err
	}
	d := &deployment{plan: p, cluster: c, clock: c.Clock(), stateRoot: stateRoot}
	if events != nil {
		d.events = events
		d.repairDone = make(chan struct{})
		// An arc's onset is the first fault silencing it, written last.
		d.faultAt = make(map[[2]msg.NodeID]vtime.Millis)
		for _, f := range slices.Backward(p.Cfg.Faults) {
			arcs, at := p.Silences(f)
			for _, arc := range arcs {
				d.faultAt[arc] = at
			}
		}
		det := runtime.NewFailureDetector(p, func(id msg.NodeID, fn func()) {
			c.Node(id).MutateTable(fn)
		})
		d.det = det
		go d.repairLoop(det)
	}
	// One publishing client per ingress, like the workload model: the
	// plan's publisher index i attaches to Overlay.Ingress[i].
	for i, ingress := range p.Overlay.Ingress {
		pub, err := DialPublisher(c.Addr(ingress), msg.NodeID(i))
		if err != nil {
			d.Close()
			return nil, err
		}
		pub.Clock = d.clock
		d.pubs = append(d.pubs, pub)
	}
	return d, nil
}

// deployment is one live run: a cluster (which arms the injected
// faults) and its publishing clients.
type deployment struct {
	plan    *runtime.Plan
	cluster *Cluster
	clock   *runtime.WallClock

	pubs     []*Publisher
	injected int
	closed   sync.Once

	// det is the shared failure detector (nil when recovery is off); a
	// broker restart notifies it from the cluster's restart hook.
	det *runtime.FailureDetector
	// stateRoot is the auto-provisioned durable-state directory backing
	// the run's broker restarts (removed on Close; empty when the plan
	// schedules none).
	stateRoot string

	// churn driver lifecycle (nil when the plan has no churn).
	churnStop chan struct{}
	churnDone chan struct{}

	// recovery lifecycle (nil when recovery is off): the liveness-event
	// channel feeding the repair goroutine, its completion signal, and
	// the injected-fault onsets detection latency is measured against.
	events     chan PeerEvent
	repairDone chan struct{}
	faultAt    map[[2]msg.NodeID]vtime.Millis
}

// repairLoop consumes liveness events and drives the failure detector:
// each confirmed-dead arc becomes a detection plus a topology repair,
// each restoration moves the affected routes back. One goroutine owns
// the detector, so repairs are serialized even when many monitors
// confirm at once.
func (d *deployment) repairLoop(det *runtime.FailureDetector) {
	defer close(d.repairDone)
	for ev := range d.events {
		if ev.Restored {
			det.ArcRestored(ev.Peer, ev.Observer)
			continue
		}
		arc := [2]msg.NodeID{ev.Peer, ev.Observer}
		faultAt, known := d.faultAt[arc]
		if !known {
			// Not an injected fault (organic silence): measure from the
			// last probe actually heard.
			faultAt = ev.LastHeard
		}
		det.ArcsDead([][2]msg.NodeID{arc}, faultAt, ev.At)
	}
}

// Inject implements runtime.Deployment: re-anchor the clock so emulated
// time 0 is now, arm the faults, then send every publication through its
// ingress broker at its scheduled emulated instant.
func (d *deployment) Inject(pubs []*msg.Message) error {
	d.clock.Restart()
	if err := d.cluster.ArmFaults(d.plan.Cfg.Faults, d.restarted); err != nil {
		return err
	}
	d.armChurn()

	order := make([]*msg.Message, len(pubs))
	copy(order, pubs)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Published < order[j].Published })
	for _, m := range order {
		d.clock.SleepUntil(m.Published, nil)
		idx := int(m.Publisher)
		if idx < 0 || idx >= len(d.pubs) {
			return fmt.Errorf("livenet: publication %d from unknown publisher %d", m.ID, m.Publisher)
		}
		if err := d.pubs[idx].Send(m); err != nil {
			if len(d.plan.Cfg.Faults) > 0 {
				// An injected crash can take an ingress broker (and with
				// it the publisher connection) down mid-run; the
				// simulator charges such publications to the crash, so
				// the live run does too instead of aborting: the refused
				// one and those the failed write had already accepted.
				lost := 1
				if we := (*WriteError)(nil); errors.As(err, &we) {
					lost += we.Lost
				}
				d.plan.Metrics.Count(metrics.DropsCrashed, lost)
				continue
			}
			return fmt.Errorf("livenet: injecting message %d: %w", m.ID, err)
		}
		d.injected++
	}
	return nil
}

// restarted is the cluster's hook into each BrokerRestart: before any
// wire reconnects, the plan's broker and table maps are swapped to the
// new incarnation and the repair engine withdraws the crash evidence —
// so its re-flood lands on the recovered table and the monitors' later
// organic Restored events find nothing left to repair.
func (d *deployment) restarted(n *Node) {
	id := n.ID()
	swap := func() {
		d.plan.Tables[id] = n.table
		d.plan.Brokers[id] = n.b
	}
	if d.det != nil {
		d.det.BrokerRestarted(id, swap)
	} else {
		swap()
	}
}

// armChurn starts one pacing goroutine that walks the plan's
// time-sorted churn schedule, injecting each event at the
// subscription's edge broker at its scaled instant (it floods across
// the overlay like any dynamic subscription) — the live counterpart of
// the simulator's timed table mutations. A single sequential driver,
// like Inject's publication pacing, guarantees a subscription's
// unsubscribe can never overtake its subscribe, which independent
// per-event timers would allow for lifetimes inside the
// scheduling-jitter window (the unsubscribe would tombstone the id and
// the late subscribe would be dropped for good).
func (d *deployment) armChurn() {
	if len(d.plan.SubEvents) == 0 {
		return
	}
	d.churnStop = make(chan struct{})
	d.churnDone = make(chan struct{})
	go func() {
		defer close(d.churnDone)
		for i := range d.plan.SubEvents {
			ev := d.plan.SubEvents[i]
			if !d.clock.SleepUntil(ev.At, d.churnStop) {
				return
			}
			node := d.cluster.Node(ev.Sub.Edge)
			if node == nil {
				continue
			}
			if ev.Unsub {
				node.Unsubscribe(ev.Sub.ID)
			} else {
				_ = node.Subscribe(ev.Sub) // encodes: checked at Deploy
			}
		}
	}()
}

// Drain implements runtime.Deployment: wait until the cluster is idle
// (Cluster.WaitIdle) or a hard timeout passes, then Close, which leaves
// every count on the plan's collector. Publications a failed write lost
// after the last Send returned are charged to the crash here, since no
// later Send reported them.
func (d *deployment) Drain() error {
	// Generous hard ceiling: the whole publishing window plus the
	// longest allowed delay, in wall time, plus slack for overheads.
	window := d.plan.Cfg.Workload.Duration + 2*vtime.Minute
	err := d.cluster.WaitIdle(d.injected, d.clock.Scale().Wall(window)+20*time.Second)
	for _, p := range d.pubs {
		if lost := p.unreportedLoss(); lost > 0 {
			d.plan.Metrics.Count(metrics.DropsCrashed, lost)
		}
	}
	d.Close()
	return err
}

// PeakQueue implements runtime.Deployment.
func (d *deployment) PeakQueue() int { return d.cluster.PeakQueue() }

// Cluster returns the deployed cluster, so a caller holding the
// runtime.Deployment can read what the nodes measured — link
// estimates, per-node stats — beside what the plan believed.
func (d *deployment) Cluster() *Cluster { return d.cluster }

// Close implements runtime.Deployment: it stops the cluster, then merges
// every incarnation's ledger into the plan's collector (here, not in
// Cluster.Stop: nodes with a tap over that collector counted there
// already). A second call does nothing.
func (d *deployment) Close() error {
	d.closed.Do(func() {
		if d.churnStop != nil {
			close(d.churnStop)
			<-d.churnDone
		}
		for _, p := range d.pubs {
			p.Close()
		}
		// Stop the cluster before closing the event channel: Stop waits
		// for every heartbeat monitor, so no OnPeerEvent send can race the
		// close.
		d.cluster.Stop()
		for _, l := range d.cluster.Ledgers() {
			d.plan.Metrics.Merge(l)
		}
		if d.events != nil {
			close(d.events)
			<-d.repairDone
		}
		if d.stateRoot != "" {
			os.RemoveAll(d.stateRoot)
		}
	})
	return nil
}
