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
// The two are equal on a cluster deploying a runtime.Plan's schedule. A
// cluster started without one keeps the absolute wall clock (Unix epoch,
// scale 1) that multi-process deployments share without coordination,
// while its TimeScale compresses the link emulation or, near 0, switches
// it off (throughput benchmarks). Waits on real time stay on package
// time: write deadlines, dialRetry's timeout and backoff, the egress
// gate's poll, WaitIdle's timeout and polls, and Subscriber.Receive.
//
// There is one broker-to-broker link, the simulator's: both backends
// drive the same sending and receiving halves (runtime/link.go), and
// this package adds the framing (reliable.go). Every relayed message is
// a FrameData carrying the link sequence, the sender's lowest still-live
// sequence and its incarnation epoch, clean link or lossy; FrameMessage
// is what a publisher hands its ingress broker and nothing else. The
// broker's ledger charges are shared the same way (runtime/charge.go):
// Process results, pruned entries, session resumes and crash losses —
// the queues a crash empties, a burst stopped mid-transfer, the frames
// a failed write took — reach the node's ledger and tap through
// runtime.Charge, and this package keeps only the egress occupancy the
// MaxEgress gate reads and the session frames.
//
// Every node runs one broker of a runtime.Plan: the plan's broker,
// rebuilt by the plan's constructor when the node is reborn, its links
// drawn and faced as the plan's, its estimators seeded with the plan's
// beliefs. A plan built by runtime.NewPlan brings a static population
// and its schedule; one built by runtime.Assemble with no subscriptions
// (StartCluster without a Plan, cmd/bdps-broker) brings neither. Either
// way subscriptions also arrive dynamically: a subscriber client sends
// its subscription to its edge broker, which floods it across the
// overlay; every broker independently computes the deterministic
// path(s) from each ingress — K paths under the plan's Multipath — and
// installs its routing entries. Messages published before a
// subscription has propagated may miss it — exactly the transient any
// real pub/sub overlay has.
package livenet

import (
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
	"bdps/internal/vtime"
)

// NodeConfig assembles a live broker.
type NodeConfig struct {
	ID msg.NodeID
	// TimeScale is the link time's scale, wall ms per emulated ms (see the
	// package comment); tests use ~0.002. Must be > 0.
	TimeScale float64

	// Plan is the deployment the node runs broker ID of (required): the
	// overlay, the broker (Plan.Brokers[ID], holding Plan.Subs; reborn
	// from StateDir, Plan.NewBroker's build around its recovered table),
	// the links (Plan.LinkSpec), the beliefs flooded subscriptions are
	// routed on and link estimators start from, multipath, aggregation
	// and the reorder window (Plan.Cfg.Reliability.Window).
	Plan *runtime.Plan
	// Clock is the node's clock time (see the package comment); nil means
	// the absolute wall clock at scale 1 (multi-process default).
	Clock *runtime.WallClock
	// Sink, when non-nil, is a tap fed every count and delivery the node
	// records, concurrently. runtime's live transport sets none.
	Sink runtime.Sink
	// Links is a test override: it replaces the adversary and retry
	// policy of the plan's link to each neighbor it names (the rate
	// sampler stays the plan's), for adversaries plan validation refuses.
	Links map[msg.NodeID]runtime.LinkSpec

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

	// Admission, when Enabled, gates publishers at the node: publisher
	// messages arriving while the node's total output backlog is at least
	// Admission.MaxQueue entries are rejected at the door and counted in
	// Stats.PubsRejected. StartCluster sets it, from its plan's defaulted
	// config, only on a cluster it built the plan for; a deployed
	// schedule is gated centrally by the plan's admission sweep instead,
	// and enabling both would double-gate.
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
	// and every subscription a SessionDown fault suspended. The map is
	// guarded by mu and written only with it held exclusively; each
	// session's own state is under the session's lock.
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
	// ledger is the node's collector, written without a lock by its
	// read loops and senders; see count. It is allocated apart from the
	// node so a Cluster can keep a replaced incarnation's ledger without
	// keeping the node.
	ledger *metrics.Collector
	// charge charges broker outcomes to the ledger (runtime/charge.go).
	charge runtime.Charge

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
	// The node-local admission gate consults it as the node's load
	// signal.
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
	p := cfg.Plan
	if p == nil {
		return nil, errors.New("livenet: nil plan")
	}
	if p.Brokers[cfg.ID] == nil {
		return nil, fmt.Errorf("livenet: broker %d is not in the plan", cfg.ID)
	}
	if cfg.TimeScale <= 0 {
		return nil, fmt.Errorf("livenet: TimeScale %v must be > 0", cfg.TimeScale)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = runtime.AbsoluteWallClock(1)
	}
	n := &Node{
		cfg:         cfg,
		clock:       clock,
		link:        runtime.Scale(cfg.TimeScale),
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
		ledger:      p.Metrics.Blank(),
	}
	n.charge = runtime.NewCharge(nodeCount{n}, nil)
	n.epoch.Store(cfg.Epoch)
	if cfg.StateDir != "" {
		if err := n.openStore(); err != nil {
			return nil, err
		}
	}
	// A node runs the plan's broker or, reborn, the plan's build of it
	// around the table its log recovered, as the simulator's restart does.
	n.b = p.Brokers[cfg.ID]
	if n.restarted {
		var table *routing.Table
		table, n.seenSubs = runtime.RecoverTable(cfg.ID, n.recovered.Entries)
		if len(n.seenSubs) > 0 {
			n.count(metrics.RestartReplayedSubs, len(n.seenSubs))
		}
		var err error
		if n.b, err = p.NewBroker(cfg.ID, table); err != nil {
			_ = n.store.Close()
			return nil, err
		}
	}
	n.table = n.b.Table()
	if p.Cfg.Aggregate {
		n.agg = routing.NewAggregator()
	}
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
	n.installer = routing.NewInstaller(p.Overlay, routing.Options{Rates: p.Beliefs, Multipath: p.Cfg.Multipath})
	n.nlinks = int32(len(p.Overlay.Graph.Neighbors(cfg.ID)))
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

// count adds k to one ledger counter, and forwards it to the tap when
// there is one.
func (n *Node) count(id metrics.Counter, k int) {
	n.ledger.Count(id, k)
	if n.cfg.Sink != nil {
		n.cfg.Sink.Count(id, k)
	}
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return statsOf(n.ledger.Ledger()) }

func statsOf(l metrics.Ledger) Stats {
	return Stats{Ledger: l, Deliveries: l.ValidDeliveries + l.LateDeliveries, ValidDeliver: l.ValidDeliveries}
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

// Crash stops the node as an injected broker failure and charges
// everything still sitting in its output queues to the crash
// (runtime.Charge.CrashQueues), as the simulator's crash event does.
// Messages lost in flight toward a crashed peer are charged by the
// sender when its write fails.
func (n *Node) Crash() {
	n.Stop()
	n.mu.Lock()
	lost := n.charge.CrashQueues(n.b, n.clock.Now())
	n.mu.Unlock()
	n.egress.Add(-int64(lost))
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
