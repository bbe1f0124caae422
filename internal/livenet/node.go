// Package livenet is the live TCP backend of the unified runtime layer
// (internal/runtime): each broker is a Node with goroutines for inbound
// connections and one sender goroutine per overlay link, talking the
// binary wire protocol of internal/msg over TCP. The node's message
// handling — matching, local delivery, per-hop enqueueing, dedup — is
// the same broker.Broker the simulator drives; this package only
// realizes time (wall clock, compressed by TimeScale) and movement
// (paced TCP frames).
//
// Link speeds are emulated by pacing: before writing a message frame the
// sender sleeps SizeKB × rate × TimeScale milliseconds, with the rate
// drawn from the link's configured distribution — the paper's delay
// model on a wall clock. TimeScale < 1 compresses the emulation for
// demos, tests and sim↔live cross-validation.
//
// All scheduling-relevant time flows through one runtime.Clock, so
// deadline math never touches time.Now directly. The default clock is
// the absolute wall clock (Unix epoch, scale 1) that standalone
// multi-process deployments share without coordination; in-process
// clusters inject a shared, compressed clock instead.
//
// Nodes run in two modes. A runtime.Plan deployment hands every node a
// pre-assembled broker (static routing tables, multipath, dedup).
// Without a plan, subscriptions are dynamic: a subscriber client sends
// its subscription to its edge broker, which floods it across the
// overlay; every broker independently computes the deterministic
// path(s) from each ingress — K paths when Multipath is set — and
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
	"time"

	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/durable"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// Pacer paces one outgoing link: a per-transfer rate sampler and the
// random stream feeding it. Plan deployments pass the plan's samplers so
// live links draw the same rate sequences the simulator would.
type Pacer struct {
	Sampler runtime.Sampler
	Stream  *stats.Stream

	// timer is the owning sender goroutine's pacing timer: created by
	// the first wait that actually has to sleep, reused by every later
	// one, so an unpaced sender never allocates it and a paced one
	// allocates it once.
	timer *time.Timer
}

// wait sleeps one pacing delay — a transfer's sampled link time, already
// scaled to wall time — and reports false when the node stopped first.
// A delay that rounds to nothing costs a poll of the stop channel and no
// timer. Only the sender goroutine that owns the Pacer may call it.
func (p *Pacer) wait(d time.Duration, stopped <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-stopped:
			return false
		default:
			return true
		}
	}
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	select {
	case <-p.timer.C:
		return true
	case <-stopped:
		// Leave the timer stopped and its channel empty, so a Reset is
		// safe whatever the runtime's timer-channel semantics.
		if !p.timer.Stop() {
			select {
			case <-p.timer.C:
			default:
			}
		}
		return false
	}
}

// NodeConfig assembles a live broker.
type NodeConfig struct {
	ID       msg.NodeID
	Overlay  *topology.Overlay
	Scenario msg.Scenario
	Params   core.Params
	Strategy core.Strategy
	// TimeScale compresses emulated link delays: real sleep = emulated ms
	// × TimeScale. 1.0 is real time; tests use ~0.002. Must be > 0.
	TimeScale float64
	// Seed drives the link-rate samplers.
	Seed uint64

	// Broker, when non-nil, is a pre-assembled broker from a
	// runtime.Plan (static tables, multipath, dedup); Scenario, Params
	// and Strategy above are then ignored. Nil means the node builds its
	// own broker with an empty table filled by dynamic floods.
	Broker *broker.Broker
	// Preinstalled lists subscriptions already present in Broker's table,
	// so a re-subscribe flood cannot double-install them.
	Preinstalled []*msg.Subscription
	// Multipath > 1 makes dynamic subscription floods install K paths per
	// ingress, with message dedup at every broker.
	Multipath int
	// Aggregate enables covering-based subscription aggregation: this
	// node makes the owner-side covering decision for subscriptions whose
	// edge broker it is, suppressing the subscribe flood when a resident
	// filter with identical delivery terms already covers the newcomer.
	Aggregate bool
	// Clock is the shared time base; nil means the absolute wall clock
	// at scale 1 (multi-process default).
	Clock runtime.Clock
	// Sink, when non-nil, receives delivery-side metric events (already
	// serialized by the caller, e.g. a runtime.LockedSink).
	Sink runtime.Sink
	// Pacers overrides per-link pacing; missing links default to the
	// overlay's truncated-normal rates on a stream derived from Seed.
	Pacers map[msg.NodeID]Pacer

	// Loss maps outgoing links to the injected LinkLoss adversary each
	// faces; links without an entry (or a nil map) stay on the plain
	// message path. Retry supplies each lossy link's retransmission
	// policy. Both are derived from the plan's deterministic link
	// enumeration so live links face the simulator's exact adversary.
	Loss  map[msg.NodeID]*runtime.LossModel
	Retry map[msg.NodeID]runtime.RetryPolicy
	// AckEvery is the cumulative-ack cadence of reliable inbound links
	// (data frames per ack); RetxWindow bounds the per-link retransmit
	// buffer and the reorder-heal buffer. Reliability defaults when ≤ 0.
	AckEvery   int
	RetxWindow int

	// Heartbeat enables per-link failure detection (heartbeat.go); the
	// zero value disables it.
	Heartbeat HeartbeatConfig
	// OnPeerEvent receives liveness transitions from the heartbeat
	// monitor (confirmed-dead and restored links). Called from the
	// monitor goroutine; must not block for long.
	OnPeerEvent func(PeerEvent)

	// MaxEgress bounds the node's total output-queue occupancy (entries
	// across all links): when reached, connection read loops stop
	// dispatching message batches until senders drain the
	// backlog, which fills the kernel socket buffers and pushes back on
	// the TCP senders — end-to-end backpressure instead of unbounded
	// queue growth behind a slow link. 0 disables the gate.
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
	// log. Plan deployments replay recovered state through the plan's
	// repair engine instead of trusting it blindly.
	StateDir string

	// Epoch overrides the node's starting incarnation number. Ignored
	// when StateDir recovery supplies one (recovered epoch + 1 wins).
	Epoch uint32

	// Shards is the number of ingress workers (0 = 1): parallel shards of
	// the data path (shard.go), keyed by publication stream.
	Shards int
	// Burst caps an unpaced egress burst (default 32): how many messages
	// a sender may take at one scheduling instant and flush with one
	// writev while their transfer times add up to less than a timer can
	// resolve. A paced link's burst ends sooner, at that transfer time
	// (shard.go, paceQuantum).
	Burst int
}

// Node is one live broker.
type Node struct {
	cfg   NodeConfig
	clock runtime.Clock
	sink  runtime.Sink

	// epoch is this broker incarnation's number, stamped into every
	// Hello, heartbeat and reliable data frame the node sends. A
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
	// linkSenders indexes each reliable outgoing link's sender state so
	// checkpoints can snapshot the send watermarks (guarded by mu).
	linkSenders map[msg.NodeID]*linkSender

	// sessions holds per-subscriber resumable delivery state — the
	// attached connection, the delivery sequence numbers and a bounded
	// replay ring (session.go) — for every locally attached subscriber
	// and every plan-mode suspended subscription. The map is guarded by
	// mu and written only with it held exclusively; each session's own
	// state is under the session's lock.
	sessions map[msg.SubID]*session

	// mu guards the mutable routing-side state below. Shard workers hold
	// it shared while processing (broker.Processor synchronizes the
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
	estimates map[msg.NodeID]*stats.WelfordEstimator
	// flood dedup; removed subscriptions leave a tombstone so a late
	// subscribe flood cannot resurrect them. The tombstone set is
	// generation-bounded (see tombstones) so sustained churn cannot leak
	// memory; seenSubs entries are deleted on unsubscribe for the same
	// reason.
	seenSubs    map[msg.SubID]bool
	removedSubs tombstones
	// statistics (atomic: updated by concurrent shard workers)
	cnt counters

	// Heartbeat liveness state (heartbeat.go), under its own lock so
	// probe bookkeeping never contends with the data plane.
	hbMu      sync.Mutex
	lastHeard map[msg.NodeID]vtime.Millis
	peerState map[msg.NodeID]int

	// Ingress workers and the egress burst cap; see shard.go.
	shards []*shard
	burst  int
	// nlinks is the number of outgoing overlay links — the worst-case
	// queue fan-out a message is retained for before Process reports
	// the actual one. Derived from the overlay at construction so it
	// can never lag the routing fan-out (an under-retain would let a
	// fast sender release a message a worker is still encoding).
	nlinks int32

	// egress tracks the node's total output-queue occupancy (entries
	// across all link queues): raised when Process enqueues, lowered
	// when a sender pops or a drop/shed/crash path consumes an entry.
	// The read loops gate on it (MaxEgress) and standalone
	// admission consults it as the node's load signal.
	egress atomic.Int64

	// Quiescence counters (atomic): frames sent to / received from peer
	// brokers, publisher frames accepted, receives in progress, senders
	// mid-transfer. A cluster is idle when every sent frame has been
	// received, nothing is queued and nothing is in flight.
	sentPeers   atomic.Int64
	recvPeers   atomic.Int64
	recvPubs    atomic.Int64
	inflight    atomic.Int32
	busySenders atomic.Int32

	// dispatched counts messages handed to the shard workers but not yet
	// processed — the subset of inflight that is guaranteed to drain on
	// its own. The MaxEgress gate uses egress+dispatched: gating on full
	// inflight would deadlock, because inflight also counts messages
	// still parked in *other* read loops' pending buffers, which only
	// move once *their* gates open.
	dispatched atomic.Int32

	listener net.Listener
	peers    map[msg.NodeID]*peerConn
	inbound  map[net.Conn]struct{}
	stopped  chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Stats counts a live node's activity (retrieved via Node.Stats).
type Stats struct {
	Receptions    int
	Deliveries    int
	ValidDeliver  int
	DropsExpired  int
	DropsHopeless int
	DropsArrival  int
	Duplicates    int

	// Reliable-channel counters (zero on clean links): wire frames the
	// injected adversary dropped, retransmissions the policy admitted,
	// duplicates and reorderings the receiving ends healed, and messages
	// abandoned because no retry could still meet their bound.
	FramesLost      int
	Retransmits     int
	DupsSuppressed  int
	ReorderedHealed int
	DroppedDeadline int

	// FloodsSuppressed counts subscribe floods this node avoided because
	// a resident covering filter already carried the newcomer's traffic.
	FloodsSuppressed int

	// Overload-protection counters: queue entries evicted by
	// pressure-triggered worst-first shedding, and publisher messages
	// turned away by node-local admission control (standalone mode).
	DropsShed    int
	PubsRejected int

	// Crash-restart counters: data frames rejected because a newer
	// incarnation of the sending broker announced itself, subscriber
	// sessions resumed after a reattach, and messages replayed to
	// resumed sessions through the deadline gate.
	StaleEpochFrames int
	SessionsResumed  int
	MsgsReplayed     int
}

// counters is the atomic backing of Stats.
type counters struct {
	receptions    atomic.Int64
	deliveries    atomic.Int64
	validDeliver  atomic.Int64
	dropsExpired  atomic.Int64
	dropsHopeless atomic.Int64
	dropsArrival  atomic.Int64
	duplicates    atomic.Int64

	framesLost      atomic.Int64
	retransmits     atomic.Int64
	dupsSuppressed  atomic.Int64
	reorderedHealed atomic.Int64
	droppedDeadline atomic.Int64

	floodsSuppressed atomic.Int64

	dropsShed    atomic.Int64
	pubsRejected atomic.Int64

	staleEpoch      atomic.Int64
	sessionsResumed atomic.Int64
	msgsReplayed    atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Receptions:    int(c.receptions.Load()),
		Deliveries:    int(c.deliveries.Load()),
		ValidDeliver:  int(c.validDeliver.Load()),
		DropsExpired:  int(c.dropsExpired.Load()),
		DropsHopeless: int(c.dropsHopeless.Load()),
		DropsArrival:  int(c.dropsArrival.Load()),
		Duplicates:    int(c.duplicates.Load()),

		FramesLost:      int(c.framesLost.Load()),
		Retransmits:     int(c.retransmits.Load()),
		DupsSuppressed:  int(c.dupsSuppressed.Load()),
		ReorderedHealed: int(c.reorderedHealed.Load()),
		DroppedDeadline: int(c.droppedDeadline.Load()),

		FloodsSuppressed: int(c.floodsSuppressed.Load()),

		DropsShed:    int(c.dropsShed.Load()),
		PubsRejected: int(c.pubsRejected.Load()),

		StaleEpochFrames: int(c.staleEpoch.Load()),
		SessionsResumed:  int(c.sessionsResumed.Load()),
		MsgsReplayed:     int(c.msgsReplayed.Load()),
	}
}

type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
}

func (p *peerConn) writeFrame(frameType byte, body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	return msg.WriteFrame(p.conn, frameType, body)
}

// writeBuf writes one preassembled frame (header + body in one buffer)
// with a single syscall.
func (p *peerConn) writeBuf(frame []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	_, err := p.conn.Write(frame)
	return err
}

// writeBuffers flushes a whole burst of preassembled frames with
// writev, returning the bytes written (for partial-failure accounting).
// WriteTo consumes *bufs (the slice header advances and elements are
// re-sliced); the caller passes a long-lived scratch it rebuilds per
// burst, so nothing escapes per call.
func (p *peerConn) writeBuffers(bufs *net.Buffers) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, err
	}
	return bufs.WriteTo(p.conn)
}

// tombstoneLimit bounds each tombstone generation. Total tombstone
// memory is at most two generations; a subscribe flood older than the
// last ~2·tombstoneLimit unsubscribes can in principle resurrect a
// subscription — the same eventual-consistency window any bounded
// anti-entropy state has — instead of the set growing without limit
// under a million-user churn soak.
const tombstoneLimit = 1 << 16

// tombstones is a generation-bounded set of unsubscribed ids: inserts go
// to the current generation; when it fills, the previous generation is
// dropped. Membership checks consult both.
type tombstones struct {
	limit     int // generation capacity; defaults to tombstoneLimit
	cur, prev map[msg.SubID]struct{}
}

func (t *tombstones) add(id msg.SubID) {
	if t.limit == 0 {
		t.limit = tombstoneLimit
	}
	if t.cur == nil {
		t.cur = make(map[msg.SubID]struct{})
	}
	if len(t.cur) >= t.limit {
		t.prev = t.cur
		t.cur = make(map[msg.SubID]struct{}, t.limit)
	}
	t.cur[id] = struct{}{}
}

func (t *tombstones) has(id msg.SubID) bool {
	if _, ok := t.cur[id]; ok {
		return true
	}
	_, ok := t.prev[id]
	return ok
}

// len reports the retained tombstone count (both generations).
func (t *tombstones) len() int { return len(t.cur) + len(t.prev) }

// NewNode validates the configuration and builds a node.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Overlay == nil {
		return nil, errors.New("livenet: nil overlay")
	}
	if cfg.TimeScale <= 0 {
		return nil, fmt.Errorf("livenet: TimeScale %v must be > 0", cfg.TimeScale)
	}
	if cfg.Admission.Enabled || cfg.Admission.Shed {
		cfg.Admission = cfg.Admission.Defaulted()
	}
	b := cfg.Broker
	if b == nil {
		if cfg.Strategy == nil {
			return nil, errors.New("livenet: nil strategy")
		}
		if cfg.Params == (core.Params{}) {
			cfg.Params = core.DefaultParams()
		}
		means := make(map[msg.NodeID]float64)
		for _, e := range cfg.Overlay.Graph.Neighbors(cfg.ID) {
			means[e.To] = e.Rate.Mean
		}
		// Dynamic tables churn by construction (every subscribe or
		// unsubscribe flood mutates them), so arm the counting-index fast
		// path up front: mutations keep it current in place.
		table := routing.NewTable(cfg.ID)
		table.EnableIndex()
		pressure := 0
		if cfg.Admission.Shed {
			pressure = cfg.Admission.MaxQueue
		}
		var err error
		b, err = broker.New(broker.Config{
			ID:        cfg.ID,
			Scenario:  cfg.Scenario,
			Params:    cfg.Params,
			Strategy:  cfg.Strategy,
			Table:     table,
			LinkMeans: means,
			Dedup:     cfg.Multipath > 1,
			Pressure:  pressure,
		})
		if err != nil {
			return nil, err
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = runtime.AbsoluteWallClock(1)
	}
	n := &Node{
		cfg:         cfg,
		clock:       clock,
		sink:        cfg.Sink,
		b:           b,
		table:       b.Table(),
		wake:        make(map[msg.NodeID]chan struct{}),
		linkDown:    make(map[msg.NodeID]bool),
		estimates:   make(map[msg.NodeID]*stats.WelfordEstimator),
		seenSubs:    make(map[msg.SubID]bool),
		peers:       make(map[msg.NodeID]*peerConn),
		inbound:     make(map[net.Conn]struct{}),
		stopped:     make(chan struct{}),
		lastHeard:   make(map[msg.NodeID]vtime.Millis),
		peerState:   make(map[msg.NodeID]int),
		peerEpochs:  make(map[msg.NodeID]uint32),
		linkSenders: make(map[msg.NodeID]*linkSender),
		sessions:    make(map[msg.SubID]*session),
	}
	n.epoch.Store(cfg.Epoch)
	if cfg.StateDir != "" {
		if err := n.openStore(); err != nil {
			return nil, err
		}
	}
	n.installer = routing.NewInstaller(cfg.Overlay, routing.Options{Multipath: cfg.Multipath})
	for _, s := range cfg.Preinstalled {
		n.seenSubs[s.ID] = true
	}
	if cfg.Aggregate {
		n.agg = routing.NewAggregator()
		// Replay the owned slice of the preinstalled population in order.
		// Covering decisions are per-edge (the delivery-terms key includes
		// the edge broker), so this reconstructs exactly the central
		// aggregated build's decision state for this node's subscriptions;
		// the preinstalled tables already realize it, hence the silent
		// Readmit instead of Admit.
		for _, s := range cfg.Preinstalled {
			if s.Edge == cfg.ID {
				n.agg.Readmit(s)
			}
		}
	}
	n.nlinks = int32(len(cfg.Overlay.Graph.Neighbors(cfg.ID)))
	n.burst = cfg.Burst
	if n.burst <= 0 {
		n.burst = defaultBurst
	}
	n.startShards(max(cfg.Shards, 1))
	return n, nil
}

// ID returns the broker id.
func (n *Node) ID() msg.NodeID { return n.cfg.ID }

// Epoch returns this incarnation's epoch number.
func (n *Node) Epoch() uint32 { return n.epoch.Load() }

// Restarted reports whether this incarnation recovered non-empty
// durable state, and returns that state (zero otherwise).
func (n *Node) Restarted() (durable.State, bool) { return n.recovered, n.restarted }

// openStore opens the durable store under cfg.StateDir and, when it
// holds recorded state, turns this node into a restarted incarnation:
// epoch = recorded + 1. Dynamic (plan-less) nodes reinstall the
// recovered routing entries immediately; plan deployments replay them
// through the transport's repair engine instead (Restarted).
func (n *Node) openStore() error {
	st, err := durable.Open(n.cfg.StateDir)
	if err != nil {
		return err
	}
	n.store = st
	if st.Empty() {
		return st.SetEpoch(n.cfg.Epoch)
	}
	n.recovered = st.State()
	n.restarted = true
	n.epoch.Store(n.recovered.Epoch + 1)
	if err := st.SetEpoch(n.epoch.Load()); err != nil {
		return err
	}
	if n.cfg.Broker == nil {
		for _, e := range n.recovered.Entries {
			n.table.Add(&routing.Entry{
				Sub: e.Sub, Source: e.Source, Next: e.Next,
				Hops: e.Hops, PathID: e.PathID,
				Rate:    stats.Normal{Mean: e.RateMean, Sigma: e.RateSigma},
				Relaxed: e.Relaxed,
			})
			n.seenSubs[e.Sub.ID] = true
		}
	}
	return nil
}

// logSub appends every routing entry the table currently holds for one
// subscription to the WAL (n.mu held). The scan is linear in the table
// — dynamic admissions are control-plane rare next to data traffic.
func (n *Node) logSub(id msg.SubID) {
	if n.store == nil {
		return
	}
	for _, src := range n.table.Sources() {
		for _, e := range n.table.Entries(src) {
			if e.Sub.ID != id {
				continue
			}
			_ = n.store.AppendEntry(durable.Entry{
				Sub: e.Sub, Source: e.Source, Next: e.Next,
				Hops: e.Hops, PathID: e.PathID,
				RateMean: e.Rate.Mean, RateSigma: e.Rate.Sigma,
				Relaxed: e.Relaxed,
			})
		}
	}
}

// CheckpointTable snapshots the node's full durable state — epoch,
// every live routing entry and the reliable links' send watermarks —
// into the store, truncating the incremental log. No-op without a
// StateDir.
func (n *Node) CheckpointTable() error {
	if n.store == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := durable.State{Epoch: n.epoch.Load(), Marks: make(map[msg.NodeID]uint64)}
	for _, src := range n.table.Sources() {
		for _, e := range n.table.Entries(src) {
			st.Entries = append(st.Entries, durable.Entry{
				Sub: e.Sub, Source: e.Source, Next: e.Next,
				Hops: e.Hops, PathID: e.PathID,
				RateMean: e.Rate.Mean, RateSigma: e.Rate.Sigma,
				Relaxed: e.Relaxed,
			})
		}
	}
	for to, ls := range n.linkSenders {
		st.Marks[to] = ls.seq.Load()
	}
	return n.store.Reset(st)
}

// Drain shuts the node down gracefully for a planned restart: the
// routing table and send watermarks are checkpointed first, so the next
// incarnation warm-rejoins from an exact snapshot instead of the
// incremental log. (Crash skips the checkpoint — that is the point.)
func (n *Node) Drain() {
	_ = n.CheckpointTable()
	n.Stop()
}

// observeEpoch raises the recorded incarnation epoch of a neighbor
// broker (Hello and heartbeat frames announce it).
func (n *Node) observeEpoch(peer msg.NodeID, e uint32) {
	if peer == msg.None {
		return
	}
	n.epochMu.Lock()
	if e > n.peerEpochs[peer] {
		n.peerEpochs[peer] = e
	}
	n.epochMu.Unlock()
}

// rejectStale reports whether a data frame from a neighbor carries an
// epoch older than the newest that neighbor announced — a frame sent by
// a dead incarnation, counted and discarded by the caller.
func (n *Node) rejectStale(peer msg.NodeID, e uint32) bool {
	if peer == msg.None {
		return false
	}
	n.epochMu.Lock()
	stale := e < n.peerEpochs[peer]
	n.epochMu.Unlock()
	if stale {
		n.cnt.staleEpoch.Add(1)
		if n.sink != nil {
			n.sink.StaleEpoch(1)
		}
	}
	return stale
}

// Listen binds the node's TCP listener and starts accepting connections.
// It returns the bound address (useful with ":0").
func (n *Node) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	n.listener = l
	n.wg.Add(1)
	go n.acceptLoop()
	return l.Addr().String(), nil
}

// ConnectPeers dials every overlay neighbor at the given addresses and
// starts one sender goroutine per link. Addresses of non-neighbors are
// ignored.
func (n *Node) ConnectPeers(addrs map[msg.NodeID]string) error {
	for _, e := range n.cfg.Overlay.Graph.Neighbors(n.cfg.ID) {
		addr, ok := addrs[e.To]
		if !ok {
			return fmt.Errorf("livenet: broker %d: no address for neighbor %d", n.cfg.ID, e.To)
		}
		conn, err := dialRetry(addr, 40, 50*time.Millisecond)
		if err != nil {
			return fmt.Errorf("livenet: broker %d dialing %d: %w", n.cfg.ID, e.To, err)
		}
		hello := msg.AppendHello(nil, msg.RoleBroker, n.cfg.ID, n.epoch.Load())
		if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
			conn.Close()
			return err
		}
		pacer, ok := n.cfg.Pacers[e.To]
		if !ok {
			pacer = Pacer{
				Sampler: runtime.NewSampler(runtime.LinkNormal, e.Rate, 1),
				Stream:  stats.DeriveN(n.cfg.Seed, "livenet/link", int(n.cfg.ID)<<16|int(uint16(e.To))),
			}
		}
		pc := &peerConn{conn: conn}
		n.mu.Lock()
		n.peers[e.To] = pc
		wake := make(chan struct{}, 1)
		n.wake[e.To] = wake
		n.estimates[e.To] = &stats.WelfordEstimator{Prior: e.Rate}
		n.mu.Unlock()

		// A link facing an injected loss adversary runs the reliable
		// channel: sequence numbers, a bounded retransmit buffer, and an
		// ack loop reading the cumulative acks the peer sends back on
		// this connection (nothing else ever reads a dialed link).
		var ls *linkSender
		if lm := n.cfg.Loss[e.To]; lm != nil {
			ls = newLinkSender(lm, n.cfg.Retry[e.To], n.cfg.RetxWindow)
			// A restarted incarnation resumes the link sequence from the
			// checkpointed watermark so the receiver's dedup window never
			// sees a replayed sequence number as fresh.
			if mark, ok := n.recovered.Marks[e.To]; ok {
				ls.seq.Store(mark)
			}
			n.mu.Lock()
			n.linkSenders[e.To] = ls
			n.mu.Unlock()
			n.wg.Add(1)
			go n.ackLoop(conn, ls.retx)
		}

		n.wg.Add(1)
		go n.senderLoop(e.To, pc, wake, pacer, ls)
	}
	n.startHeartbeats()
	return nil
}

// ReconnectPeer re-dials one overlay neighbor at a new address — a
// crashed peer reborn on a fresh port — and swaps the link's connection
// in place: the sender goroutine, pacer, reliable-channel state and
// per-link counters all survive, only the wire underneath changes. The
// old connection is closed (its ack reader exits on the dead socket)
// and, on a reliable link, a new ack reader is started for the new one.
func (n *Node) ReconnectPeer(to msg.NodeID, addr string) error {
	conn, err := dialRetry(addr, 40, 50*time.Millisecond)
	if err != nil {
		return fmt.Errorf("livenet: broker %d re-dialing %d: %w", n.cfg.ID, to, err)
	}
	hello := msg.AppendHello(nil, msg.RoleBroker, n.cfg.ID, n.epoch.Load())
	if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
		conn.Close()
		return err
	}
	n.mu.Lock()
	pc := n.peers[to]
	ls := n.linkSenders[to]
	n.mu.Unlock()
	if pc == nil {
		conn.Close()
		return fmt.Errorf("livenet: broker %d has no link to %d", n.cfg.ID, to)
	}
	pc.mu.Lock()
	old := pc.conn
	pc.conn = conn
	pc.mu.Unlock()
	old.Close()
	if ls != nil {
		n.wg.Add(1)
		go n.ackLoop(conn, ls.retx)
	}
	return nil
}

func dialRetry(addr string, attempts int, backoff time.Duration) (net.Conn, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(backoff)
	}
	return nil, lastErr
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

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.cnt.snapshot() }

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
		if n.sink != nil {
			n.sink.DroppedCrashed(lost)
		}
	}
}

// admitPub is the node-local admission gate for standalone (plan-less)
// deployments: a publisher message is turned away while the node's
// total output backlog — queued entries plus messages still in flight
// toward the shard workers, which would otherwise hide a channel's
// worth of backlog from the door — sits at or beyond the configured
// queue threshold. The live analogue of the plan-side saturation
// rejection; always true when node-local admission is off.
func (n *Node) admitPub() bool {
	if !n.cfg.Admission.Enabled {
		return true
	}
	if n.egress.Load()+int64(n.inflight.Load()) >= int64(n.cfg.Admission.MaxQueue) {
		n.cnt.pubsRejected.Add(1)
		return false
	}
	return true
}

// releaseEntry returns a consumed queue entry — and the reference it
// holds on its (possibly pooled) message — to their pools.
func releaseEntry(e *core.Entry) {
	if m, ok := e.Data.(*msg.Message); ok {
		m.Release()
	}
	e.Release()
}

// PeakQueue returns the largest occupancy any output queue reached.
func (n *Node) PeakQueue() int {
	peak := 0
	n.b.EachQueue(func(_ msg.NodeID, q *core.Queue) {
		q.Lock()
		if p := q.Peak(); p > peak {
			peak = p
		}
		q.Unlock()
	})
	return peak
}

// SetLinkDown injects (or lifts) a link outage on the outgoing link to a
// neighbor: while down, the sender starts no new transfers (an in-flight
// transfer finishes, as in the simulator's fault model).
func (n *Node) SetLinkDown(to msg.NodeID, down bool) {
	n.mu.Lock()
	n.linkDown[to] = down
	wake := n.wake[to]
	n.mu.Unlock()
	if !down && wake != nil {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

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

// acceptLoop accepts inbound connections (brokers, publishers,
// subscribers) and spawns a reader per connection.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			select {
			case <-n.stopped:
				return
			default:
				continue
			}
		}
		n.mu.Lock()
		select {
		case <-n.stopped:
			n.mu.Unlock()
			conn.Close()
			return
		default:
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// handleSubscribe installs a subscription (local conn non-nil when the
// subscriber is attached here) and floods it to neighbors once.
// Pre-installed plan subscriptions only register the local connection.
// With aggregation on, the subscription's edge broker — the one place
// that sees the concrete subscription first — classifies it against the
// resident canonical filters and suppresses the flood when one with
// identical delivery terms already covers it (the covering chain's
// forwarded root carries the upstream traffic).
func (n *Node) handleSubscribe(s *msg.Subscription, local *peerConn) {
	n.mu.Lock()
	if n.removedSubs.has(s.ID) {
		// Tombstoned: a subscribe flood racing its own unsubscribe.
		n.mu.Unlock()
		return
	}
	if n.seenSubs[s.ID] && local == nil {
		n.mu.Unlock()
		return
	}
	first := !n.seenSubs[s.ID]
	n.seenSubs[s.ID] = true
	var sess *session
	if local != nil && s.Edge == n.cfg.ID {
		sess = n.sessionFor(s, local, 0)
	}
	flood := first
	if first {
		if n.agg != nil && s.Edge == n.cfg.ID {
			switch kind, rep := n.agg.Admit(s); kind {
			case routing.AdmitForward:
				n.installRoutes(s)
			case routing.AdmitMember:
				// Exact duplicate: fold into the representative's local
				// entries; delivery fans out to the group's members.
				n.table.Attach(rep.ID, s)
				flood = false
			case routing.AdmitCovered:
				// Properly covered: local delivery entries only (the edge
				// is terminal on every path to it), upstream traffic rides
				// the covering chain's forwarded root.
				n.installRoutes(s)
				n.table.AddRef(rep.ID)
				flood = false
			}
			if !flood {
				n.cnt.floodsSuppressed.Add(1)
				if n.sink != nil {
					n.sink.FloodSuppressed(1)
				}
			}
		} else {
			n.installRoutes(s)
		}
		n.logSub(s.ID) // durable admission record (no-op without a store)
	}
	peers := make([]*peerConn, 0, len(n.peers))
	if flood {
		for _, p := range n.peers {
			peers = append(peers, p)
		}
	}
	n.mu.Unlock()

	if sess != nil {
		sess.attach(local) // a re-subscribe moves the session to the new connection
	}
	if !flood {
		return
	}
	body, err := msg.AppendSubscription(nil, s)
	if err != nil {
		return
	}
	for _, p := range peers {
		_ = p.writeFrame(msg.FrameSubscribe, body) // dead peers are fine
	}
}

// handleUnsubscribe removes a subscription's routing state and floods the
// removal across the overlay once. A tombstone prevents resurrection by
// late subscribe floods. With aggregation on, the owning edge broker
// realizes the retraction instead: member/covered departures never
// flooded so they never unsubscribe remotely, and a departing
// representative first floods whatever re-exposes its coverage
// (promotion hand-off or re-exposed representatives) so the peers'
// coverage stays gapless — subscribe frames precede the unsubscribe on
// every per-peer TCP stream.
func (n *Node) handleUnsubscribe(id msg.SubID) {
	n.mu.Lock()
	if n.removedSubs.has(id) {
		n.mu.Unlock()
		return
	}
	n.removedSubs.add(id)
	// Forget the flood-dedup entry too: under sustained churn seenSubs
	// would otherwise grow one entry per subscription ever seen.
	delete(n.seenSubs, id)
	delete(n.sessions, id)
	if n.store != nil {
		_ = n.store.RemoveSub(id)
	}

	var types []byte
	var frames [][]byte
	unsubscribe := true
	if n.agg != nil {
		if ret, ok := n.agg.Remove(id); ok {
			unsubscribe = n.retractOwned(id, ret, &types, &frames)
		} else {
			// Not ours: a remote copy of a forwarded subscription.
			n.table.RemoveSub(id)
		}
	} else {
		n.table.RemoveSub(id)
	}
	if unsubscribe {
		types = append(types, msg.FrameUnsubscribe)
		frames = append(frames, msg.AppendUnsubscribe(nil, id))
	}
	var peers []*peerConn
	if len(frames) > 0 {
		peers = make([]*peerConn, 0, len(n.peers))
		for _, p := range n.peers {
			peers = append(peers, p)
		}
	}
	n.mu.Unlock()

	for i, body := range frames {
		for _, p := range peers {
			_ = p.writeFrame(types[i], body)
		}
	}
}

// retractOwned realizes an owner-side retraction on the local table and
// appends the subscribe floods it requires (promotion hand-off,
// re-exposed representatives) to types/frames. It reports whether the
// unsubscribe itself must still flood: only representatives ever
// installed remote state, so member and covered departures stay local.
// Called with n.mu held.
func (n *Node) retractOwned(id msg.SubID, ret routing.Retraction, types *[]byte, frames *[][]byte) bool {
	push := func(s *msg.Subscription) {
		body, err := msg.AppendSubscription(nil, s)
		if err != nil {
			return
		}
		*types = append(*types, msg.FrameSubscribe)
		*frames = append(*frames, body)
	}
	reexpose := func(s *msg.Subscription) {
		switch kind, rep := n.agg.Reexpose(s); kind {
		case routing.AdmitForward:
			// Its local entries survived under the departing coverer;
			// only the peers must install theirs now.
			push(s)
		case routing.AdmitCovered:
			n.table.AddRef(rep.ID)
		}
	}
	switch ret.Kind {
	case routing.RetractMember:
		n.table.Detach(ret.Rep.ID, id)
		return false
	case routing.RetractCovered:
		// Covered canonicals never flooded, so their departure is a
		// purely local affair whatever shape it takes.
		if ret.Promoted != nil {
			// The last exact duplicate inherits the local entries in
			// place (the filter is identical).
			n.table.Promote(id)
			return false
		}
		n.table.RemoveSub(id)
		n.table.DropRef(ret.Rep.ID)
		for _, s := range ret.Reexposed {
			// By transitivity the departing filter's own coverer covers
			// them too, so these normally re-cover without flooding; the
			// cycle guard can still force one to forward.
			reexpose(s)
		}
		return false
	}
	if ret.Promoted != nil {
		// The last exact duplicate inherits the entries in place (the
		// filter is identical); peers swap the entries' identity via the
		// subscribe-then-unsubscribe flood pair.
		n.table.Promote(id)
		push(ret.Promoted)
		return true
	}
	n.table.RemoveSub(id)
	for _, s := range ret.Reexposed {
		reexpose(s)
	}
	return true
}

// Subscribe injects a subscription at this broker exactly as if a
// subscriber client had sent it — routing entries install here and the
// subscription floods across the overlay. The runtime's live churn
// driver uses it to realize a plan's subscribe events at the
// subscription's edge broker.
func (n *Node) Subscribe(s *msg.Subscription) { n.handleSubscribe(s, nil) }

// Unsubscribe injects a subscription withdrawal at this broker: routing
// state is removed, a bounded tombstone guards against late subscribe
// floods, and the removal floods across the overlay.
func (n *Node) Unsubscribe(id msg.SubID) { n.handleUnsubscribe(id) }

// installRoutes computes this broker's routing entries for one
// dynamically flooded subscription: for each ingress, the deterministic
// min-mean path — or the K shortest paths when Multipath is on — using
// the same path-entry definition as static routing builds (n.mu held).
// The installer's per-ingress Dijkstra cache makes each flood cost path
// reconstruction, not a shortest-path computation under the write lock.
func (n *Node) installRoutes(s *msg.Subscription) {
	n.installer.InstallAt(n.cfg.ID, n.table, s)
}

// accountResult charges a Process result's deliveries and arrival
// drops to the node counters and the metrics sink.
func (n *Node) accountResult(res *broker.Result) {
	for _, d := range res.Deliveries {
		n.cnt.deliveries.Add(1)
		if d.Valid {
			n.cnt.validDeliver.Add(1)
		}
		if n.sink != nil {
			n.sink.DeliveredAt(int32(d.SubID), d.Price, d.Published, d.Latency, d.Valid)
		}
	}
	if res.ArrivalDrops > 0 {
		n.cnt.dropsArrival.Add(int64(res.ArrivalDrops))
		if n.sink != nil {
			n.sink.DroppedOnArrival(res.ArrivalDrops)
		}
	}
	// Net occupancy change of this Process call: entries enqueued minus
	// entries the pressure threshold shed back out.
	if d := len(res.EnqueuedHops) - len(res.Shed); d != 0 {
		n.egress.Add(int64(d))
	}
	if len(res.Shed) > 0 {
		n.cnt.dropsShed.Add(int64(len(res.Shed)))
		if n.sink != nil {
			n.sink.DroppedShed(len(res.Shed))
		}
		for _, e := range res.Shed {
			releaseEntry(e)
		}
	}
}

// accountDrops charges pruned entries to the drop counters and releases
// them (and their message references) back to the pools.
func (n *Node) accountDrops(drops []core.Drop) {
	if len(drops) > 0 {
		n.egress.Add(-int64(len(drops)))
	}
	for _, d := range drops {
		if d.Reason == core.DropExpired {
			n.cnt.dropsExpired.Add(1)
			if n.sink != nil {
				n.sink.DroppedExpired(1)
			}
		} else {
			n.cnt.dropsHopeless.Add(1)
			if n.sink != nil {
				n.sink.DroppedHopeless(1)
			}
		}
		releaseEntry(d.Entry)
	}
}

// LinkEstimate returns the measured per-KB rate estimate for the link to
// a neighbor (emulated milliseconds per KB), and whether any transfers
// have been observed yet. Before enough observations it returns the
// configured prior.
func (n *Node) LinkEstimate(to msg.NodeID) (stats.Normal, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	est, ok := n.estimates[to]
	if !ok {
		return stats.Normal{}, false
	}
	return est.Estimate(), est.Count() > 0
}
