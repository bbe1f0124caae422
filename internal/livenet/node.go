// Package livenet is the live TCP backend of the unified runtime layer
// (internal/runtime): each broker is a Node with goroutines for inbound
// connections and one sender goroutine per overlay link, talking the
// binary wire protocol of internal/msg over TCP. The node's message
// handling — matching, local delivery, per-hop enqueueing, dedup — is
// the same broker.Broker the simulator drives; this package only
// realizes time and movement (paced TCP frames).
//
// A node runs on two rates, both emulated milliseconds converted to wall
// time by runtime.Scale, never by arithmetic here:
//   - Clock time is the node's *runtime.WallClock (NodeConfig.Clock). It
//     stamps Now, the instant every deadline is judged at, and paces
//     heartbeats, armed faults, injection and churn, and Drain's timeout.
//   - Link time is TimeScale. It paces processing delays (PD) and link
//     transfers — before writing a message frame the sender sleeps
//     SizeKB × rate, the rate drawn from the link's configured
//     distribution: the paper's delay model — cuts the egress bursts, and
//     turns the measured transfer times back into link estimates.
//
// The two are equal on every plan cluster. A standalone node's default
// clock is the absolute wall clock (Unix epoch, scale 1) that
// multi-process deployments share without coordination, while its
// TimeScale compresses the link emulation or, near 0, switches it off
// (throughput benchmarks). Waits on real time stay on package time: write
// deadlines, dialRetry's timeout and backoff, the egress gate's poll,
// WaitIdle's timeout and polls, and Subscriber.Receive.
//
// There is one broker-to-broker link, the simulator's: both backends
// drive the same sending and receiving halves (runtime/link.go), and
// this package adds the framing (reliable.go). Every relayed message is
// a FrameData carrying the link sequence, the sender's lowest still-live
// sequence and its incarnation epoch, clean link or lossy; FrameMessage
// is what a publisher hands its ingress broker and nothing else.
//
// Nodes run in two modes. A plan node runs one broker of a
// runtime.Plan (static routing tables, multipath, dedup), rebuilt by
// the plan's constructor when it is reborn. Without a plan,
// subscriptions are dynamic: a subscriber client sends its subscription
// to its edge broker, which floods it across the overlay; every broker
// independently computes the deterministic path(s) from each ingress —
// K paths when Multipath is set — and installs its routing entries.
// Messages published before a subscription has propagated may miss it —
// exactly the transient any real pub/sub overlay has.
package livenet

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/durable"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/runtime"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// NodeConfig assembles a live broker.
type NodeConfig struct {
	ID       msg.NodeID
	Overlay  *topology.Overlay
	Scenario msg.Scenario
	Params   core.Params
	Strategy core.Strategy
	// TimeScale is the link time's scale, wall ms per emulated ms (see the
	// package comment); tests use ~0.002. Must be > 0.
	TimeScale float64
	// Seed drives the link-rate samplers.
	Seed uint64

	// Plan, when non-nil, makes this a plan node: it runs the plan's
	// broker (Plan.Brokers[ID]) holding Plan.Subs, installs flooded
	// subscriptions on Plan.Beliefs, and when reborn from StateDir runs
	// Plan.NewBroker's build around its recovered table. Overlay,
	// Multipath and Aggregate are then the plan's; Scenario, Params and
	// Strategy are ignored. Nil means the node builds its own broker with
	// an empty table filled by dynamic floods.
	Plan *runtime.Plan
	// Multipath > 1 makes dynamic subscription floods install K paths per
	// ingress, with message dedup at every broker.
	Multipath int
	// Aggregate enables covering-based subscription aggregation: this
	// node makes the owner-side covering decision for subscriptions whose
	// edge broker it is, suppressing the subscribe flood when a resident
	// filter with identical delivery terms already covers the newcomer.
	Aggregate bool
	// Clock is the node's clock time (see the package comment); nil means
	// the absolute wall clock at scale 1 (multi-process default).
	Clock *runtime.WallClock
	// Sink, when non-nil, receives delivery-side metric events (already
	// serialized by the caller, e.g. a runtime.LockedSink).
	Sink runtime.Sink
	// Links supplies each outgoing link's spec (runtime.Plan.LinkSpec
	// derives them from the plan's deterministic link enumeration, so live
	// links draw the simulator's rates and face its exact adversary). A
	// link without a sampler paces at the overlay's truncated-normal rates
	// on a stream derived from Seed; one without an adversary is clean.
	Links map[msg.NodeID]runtime.LinkSpec
	// ReorderWindow bounds each inbound link's reorder-heal buffer, in
	// frames (Reliability.Window; its default when ≤ 0).
	ReorderWindow int

	// Heartbeat enables per-link failure detection (heartbeat.go); the
	// zero value disables it.
	Heartbeat HeartbeatConfig
	// OnPeerEvent receives liveness transitions from the heartbeat
	// monitor (confirmed-dead and restored links). Called from the
	// monitor goroutine; must not block for long.
	OnPeerEvent func(PeerEvent)

	// MaxEgress bounds the node's total output-queue occupancy (entries
	// across all links): when reached, connection read loops stop
	// processing messages until senders drain the backlog, which fills
	// the kernel socket buffers and pushes back on the TCP senders —
	// end-to-end backpressure instead of unbounded queue growth behind a
	// slow link. Occupancy stays within MaxEgress plus one message's
	// fan-out per reading connection (datapath.go, gate). 0 disables the
	// gate.
	MaxEgress int

	// Admission enables node-local online admission control for
	// standalone (plan-less) deployments: publisher messages arriving
	// while the node's total output backlog is at least
	// Admission.MaxQueue entries are rejected at the door and counted in
	// Stats.PubsRejected. Plan deployments gate admission centrally in
	// the plan instead (runtime.Plan admission sweep); enabling both
	// would double-gate.
	Admission runtime.Admission

	// StateDir, when non-empty, makes the node durable: subscription
	// admissions/retractions and per-link send watermarks are recorded
	// in an append-only log under this directory (internal/durable),
	// and a node opening a non-empty directory starts as a restarted
	// incarnation — epoch bumped, routing table reinstalled from the
	// log.
	StateDir string

	// Epoch overrides the node's starting incarnation number. Ignored
	// when StateDir recovery supplies one (recovered epoch + 1 wins).
	Epoch uint32

	// Burst caps an unpaced egress burst (default 32): how many messages
	// a sender may take at one scheduling instant and flush with one
	// writev while their transfer times add up to less than a timer can
	// resolve. A paced link's burst ends sooner, at that transfer time
	// (datapath.go, paceQuantum).
	Burst int
}

// Node is one live broker.
type Node struct {
	cfg   NodeConfig
	clock *runtime.WallClock
	link  runtime.Scale // link time: TimeScale
	sink  runtime.Sink

	// epoch is this broker incarnation's number, stamped into every
	// Hello, heartbeat and data frame the node sends. A
	// restarted broker runs at stored epoch + 1, so receivers can tell
	// frames of the dead incarnation — still sitting in kernel buffers
	// or mid-flight — from the live one's.
	epoch atomic.Uint32

	// peerEpochs tracks, per neighbor broker, the highest incarnation
	// epoch seen on any Hello or heartbeat. A data frame carrying an
	// older epoch was sent by a dead incarnation and is discarded
	// (counted in StaleEpochFrames).
	epochMu    sync.Mutex
	peerEpochs map[msg.NodeID]uint32

	// Durable state (nil without a StateDir): the WAL-backed store, the
	// state recovered from it at start, and whether this incarnation is
	// a restart (the store was non-empty).
	store     *durable.Store
	storeOnce sync.Once
	recovered durable.State
	restarted bool
	// linkSenders indexes each outgoing link's sending half so
	// checkpoints can snapshot the send watermarks (guarded by mu).
	linkSenders map[msg.NodeID]*runtime.LinkSend

	// sessions holds per-subscriber resumable delivery state — the
	// attached connection, the delivery sequence numbers and a bounded
	// replay ring (session.go) — for every locally attached subscriber
	// and every plan-mode suspended subscription. The map is guarded by
	// mu and written only with it held exclusively; each session's own
	// state is under the session's lock.
	sessions map[msg.SubID]*session

	// mu guards the mutable routing-side state below. Read loops hold it
	// shared while processing (broker.Processor synchronizes the
	// genuinely shared scheduling state on finer locks) so that
	// subscription floods — which mutate the table — still exclude them.
	mu sync.RWMutex
	// b holds the routing table, output queues and scheduling logic —
	// the exact broker the simulator drives.
	b     *broker.Broker
	table *routing.Table
	// installer computes this node's routing entries for dynamically
	// flooded subscriptions, caching one Dijkstra per ingress across the
	// whole flood stream (the overlay is immutable). Accessed only with
	// mu held exclusively.
	installer *routing.Installer
	// agg makes the owner-side covering decisions when aggregation is on
	// (nil otherwise). Accessed only with mu held exclusively.
	agg  *routing.Aggregator
	wake map[msg.NodeID]chan struct{}
	// linkDown marks outgoing links taken out of service by injected
	// faults; the sender parks until the link comes back up.
	linkDown  map[msg.NodeID]bool
	estimates map[msg.NodeID]*linkEstimate
	// flood dedup; removed subscriptions leave a tombstone so a late
	// subscribe flood cannot resurrect them. The tombstone set is
	// generation-bounded (see tombstones) so sustained churn cannot leak
	// memory; seenSubs entries are deleted on unsubscribe for the same
	// reason.
	seenSubs    map[msg.SubID]bool
	removedSubs tombstones
	// cnt is the node's ledger, indexed by counter id (atomic: updated
	// by concurrent read loops and senders); see count. It is allocated
	// apart from the node so a Cluster can keep a replaced incarnation's
	// counters without keeping the node.
	cnt *ledger

	// Heartbeat liveness state (heartbeat.go), under its own lock so
	// probe bookkeeping never contends with the data plane.
	hbMu      sync.Mutex
	lastHeard map[msg.NodeID]vtime.Millis
	peerState map[msg.NodeID]int

	// burst is the egress burst cap; see datapath.go.
	burst int
	// nlinks is the number of outgoing overlay links — the worst-case
	// queue fan-out a message is retained for before Process reports
	// the actual one. Derived from the overlay at construction so it
	// can never lag the routing fan-out (an under-retain would let a
	// fast sender release a message a read loop is still encoding).
	nlinks int32

	// egress tracks the node's total output-queue occupancy (entries
	// across all link queues): raised after Process enqueues, lowered
	// when a sender pops or a drop/shed/crash path consumes an entry.
	// The read loops gate on it alone (MaxEgress): it only counts work
	// that drains without their help, and each loop adds at most one
	// message's fan-out past the gate before its enqueues show here.
	// Standalone admission consults it as the node's load signal.
	egress atomic.Int64

	// Quiescence counters (atomic): frames sent to / received from peer
	// brokers, publisher frames accepted, receives in progress (accepted,
	// not yet flushed by their read loop), senders mid-transfer. A
	// cluster is idle when every sent frame has been received, nothing is
	// queued and nothing is in flight.
	sentPeers   atomic.Int64
	recvPeers   atomic.Int64
	recvPubs    atomic.Int64
	inflight    atomic.Int32
	busySenders atomic.Int32

	listener net.Listener
	peers    map[msg.NodeID]*peerConn
	inbound  map[net.Conn]struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Stats is a snapshot of a live node's ledger counters (Node.Stats), or
// their sum over a cluster (Cluster.TotalStats). Publication-side and
// plan-side rows (Published, PubsAdmitted, Detections…) are counted by
// the run driver, not by nodes, and read zero here.
type Stats struct {
	metrics.Ledger
	// Deliveries is ValidDeliveries + LateDeliveries, and ValidDeliver
	// repeats ValidDeliveries under the name the repository benchmark
	// reads.
	Deliveries, ValidDeliver int
}

// NewNode validates the configuration and builds a node.
func NewNode(cfg NodeConfig) (*Node, error) {
	if p := cfg.Plan; p != nil {
		if p.Brokers[cfg.ID] == nil {
			return nil, fmt.Errorf("livenet: broker %d is not in the plan", cfg.ID)
		}
		cfg.Overlay, cfg.Multipath, cfg.Aggregate = p.Overlay, p.Cfg.Multipath, p.Cfg.Aggregate
	}
	if cfg.Overlay == nil {
		return nil, errors.New("livenet: nil overlay")
	}
	if cfg.TimeScale <= 0 {
		return nil, fmt.Errorf("livenet: TimeScale %v must be > 0", cfg.TimeScale)
	}
	if cfg.Admission.Enabled || cfg.Admission.Shed {
		cfg.Admission = cfg.Admission.Defaulted()
	}
	if cfg.Plan == nil && cfg.Strategy == nil {
		return nil, errors.New("livenet: nil strategy")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = runtime.AbsoluteWallClock(1)
	}
	n := &Node{
		cfg:         cfg,
		clock:       clock,
		link:        runtime.Scale(cfg.TimeScale),
		sink:        cfg.Sink,
		wake:        make(map[msg.NodeID]chan struct{}),
		linkDown:    make(map[msg.NodeID]bool),
		estimates:   make(map[msg.NodeID]*linkEstimate),
		seenSubs:    make(map[msg.SubID]bool),
		peers:       make(map[msg.NodeID]*peerConn),
		inbound:     make(map[net.Conn]struct{}),
		stopped:     make(chan struct{}),
		lastHeard:   make(map[msg.NodeID]vtime.Millis),
		peerState:   make(map[msg.NodeID]int),
		peerEpochs:  make(map[msg.NodeID]uint32),
		linkSenders: make(map[msg.NodeID]*runtime.LinkSend),
		sessions:    make(map[msg.SubID]*session),
		cnt:         new(ledger),
	}
	n.epoch.Store(cfg.Epoch)
	if cfg.StateDir != "" {
		if err := n.openStore(); err != nil {
			return nil, err
		}
	}
	// A reborn node's table is the one its log recovered. A plan node
	// runs the plan's broker or, reborn, the plan's build of it around
	// that table, as the simulator's restart does.
	var table *routing.Table
	if n.restarted {
		table, n.seenSubs = runtime.RecoverTable(cfg.ID, n.recovered.Entries)
		if len(n.seenSubs) > 0 {
			n.count(metrics.RestartReplayedSubs, len(n.seenSubs))
		}
	}
	var err error
	switch {
	case cfg.Plan != nil && !n.restarted:
		n.b = cfg.Plan.Brokers[cfg.ID]
	case cfg.Plan != nil:
		n.b, err = cfg.Plan.NewBroker(cfg.ID, table)
	default:
		if table == nil {
			table = routing.NewTable(cfg.ID)
		}
		means := make(map[msg.NodeID]float64)
		for _, e := range cfg.Overlay.Graph.Neighbors(cfg.ID) {
			means[e.To] = e.Rate.Mean
		}
		pressure := 0
		if cfg.Admission.Shed {
			pressure = cfg.Admission.MaxQueue
		}
		n.b, err = broker.New(broker.Config{
			ID:        cfg.ID,
			Scenario:  cfg.Scenario,
			Params:    cmp.Or(cfg.Params, core.DefaultParams()),
			Strategy:  cfg.Strategy,
			Table:     table,
			LinkMeans: means,
			Dedup:     cfg.Multipath > 1,
			Pressure:  pressure,
		})
	}
	if err != nil {
		if n.store != nil {
			_ = n.store.Close()
		}
		return nil, err
	}
	n.table = n.b.Table()
	if cfg.Aggregate {
		n.agg = routing.NewAggregator()
	}
	rates := routing.RateFunc(nil)
	if p := cfg.Plan; p != nil {
		rates = p.Beliefs
		for _, s := range p.Subs {
			n.seenSubs[s.ID] = true
			// Covering decisions are per-edge (the delivery-terms key
			// includes the edge broker), so replaying the owned slice of
			// the population in order rebuilds the central aggregated
			// build's decisions; the deployed tables already realize them,
			// hence the silent Readmit.
			if n.agg != nil && s.Edge == cfg.ID {
				n.agg.Readmit(s)
			}
		}
	}
	n.installer = routing.NewInstaller(cfg.Overlay, routing.Options{Rates: rates, Multipath: cfg.Multipath})
	n.nlinks = int32(len(cfg.Overlay.Graph.Neighbors(cfg.ID)))
	n.burst = cfg.Burst
	if n.burst <= 0 {
		n.burst = defaultBurst
	}
	return n, nil
}

// ID returns the broker id.
func (n *Node) ID() msg.NodeID { return n.cfg.ID }

// Epoch returns this incarnation's epoch number.
func (n *Node) Epoch() uint32 { return n.epoch.Load() }

// Restarted reports whether this incarnation recovered non-empty
// durable state, and returns that state (zero otherwise).
func (n *Node) Restarted() (durable.State, bool) { return n.recovered, n.restarted }

// Drain shuts the node down gracefully for a planned restart: the
// routing table and send watermarks are checkpointed first, so the next
// incarnation warm-rejoins from an exact snapshot instead of the
// incremental log. (Crash skips the checkpoint — that is the point.)
func (n *Node) Drain() {
	_ = n.CheckpointTable()
	n.Stop()
}

// Stop shuts the node down: listener, peer connections and sender
// goroutines.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopped)
		if n.listener != nil {
			n.listener.Close()
		}
		n.mu.Lock()
		for _, p := range n.peers {
			p.conn.Close()
		}
		for conn := range n.inbound {
			conn.Close()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
	if n.store != nil {
		n.storeOnce.Do(func() { _ = n.store.Close() })
	}
}

// count adds k to one ledger counter: on the node, and on the
// deployment's sink when there is one. Deliveries are the exception
// (accountResult): the sink derives their counts from DeliveredAt.
func (n *Node) count(id metrics.Counter, k int) {
	n.cnt[id].Add(int64(k))
	if n.sink != nil {
		n.sink.Count(id, k)
	}
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.cnt.stats() }

// ledger is one incarnation's counters, indexed by counter id.
type ledger [metrics.NumCounters]atomic.Int64

// stats returns a snapshot of the counters.
func (l *ledger) stats() Stats {
	var s Stats
	for id, info := range metrics.Counters {
		*info.Field(&s.Ledger) = int(l[id].Load())
	}
	s.Deliveries = s.ValidDeliveries + s.LateDeliveries
	s.ValidDeliver = s.ValidDeliveries
	return s
}

// AggregatedEntries reports how many of this node's live routing entries
// currently stand for more than one concrete subscription (the
// table-size side of covering aggregation).
func (n *Node) AggregatedEntries() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.table.AggregatedEntries()
}

// Stopped reports whether the node has been shut down.
func (n *Node) Stopped() bool {
	select {
	case <-n.stopped:
		return true
	default:
		return false
	}
}

// Crash stops the node as an injected broker failure and accounts
// everything still sitting in its output queues as crash losses — the
// live counterpart of the simulator charging arrivals at a dead broker
// to DroppedCrashed. Messages lost in flight toward a crashed peer are
// charged by the sender when its write fails.
func (n *Node) Crash() {
	n.Stop()
	lost := 0
	n.mu.Lock()
	n.b.EachQueue(func(_ msg.NodeID, q *core.Queue) {
		q.Lock()
		for q.Len() > 0 {
			e := q.RemoveAt(q.Len() - 1)
			releaseEntry(e)
			lost++
		}
		q.Unlock()
	})
	n.mu.Unlock()
	if lost > 0 {
		n.egress.Add(-int64(lost))
		n.count(metrics.DropsCrashed, lost)
	}
}

// PeakQueue returns the largest occupancy any output queue reached.
func (n *Node) PeakQueue() int { return n.b.PeakQueue() }

// load is one node's quiescence snapshot (see Cluster.Quiescent).
type load struct {
	sentPeers, recvPeers, recvPubs int64
	queued                         int
	busy, inflight                 int
}

func (n *Node) load() load {
	s := load{
		sentPeers: n.sentPeers.Load(),
		recvPeers: n.recvPeers.Load(),
		recvPubs:  n.recvPubs.Load(),
		busy:      int(n.busySenders.Load()),
		inflight:  int(n.inflight.Load()),
	}
	n.b.EachQueue(func(_ msg.NodeID, q *core.Queue) {
		q.Lock()
		s.queued += q.Len()
		q.Unlock()
	})
	return s
}
