package livenet

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// ClusterConfig starts every broker of an overlay in one process, on
// loopback TCP — the quickest way to run the live system end to end.
//
// Every node runs a runtime.Plan. With Plan set, the cluster deploys it
// (pre-assembled brokers and routing tables, its links, its faults and
// schedule) and ignores Overlay, Scenario, Strategy, Seed, Aggregate,
// LinkLoss and Admission: they are the plan's. Without one, StartCluster
// maps those fields onto one runtime.Config — default parameters, no
// subscriptions, LinkLoss as a wildcard fault — and assembles it
// (runtime.Assemble): brokers start with empty tables and subscriptions
// flood dynamically. A cluster that needs any other part of a
// runtime.Config deploys the plan runtime.Assemble builds from it.
type ClusterConfig struct {
	Overlay  *topology.Overlay
	Scenario msg.Scenario
	Strategy core.Strategy
	// TimeScale is every node's link time and Clock their clock time (see
	// the package comment). With a Plan, TimeScale defaults to the plan's
	// and Clock to a clock anchored at start on that scale, so the two
	// agree; without one, TimeScale defaults to 1 and Clock to the
	// absolute wall clock at scale 1.
	TimeScale float64
	Clock     *runtime.WallClock
	Seed      uint64

	// Plan deploys a pre-assembled runtime plan.
	Plan *runtime.Plan
	// Sink, when non-nil, is every node's tap (NodeConfig.Sink), safe for
	// concurrent use. runtime's live transport sets none.
	Sink runtime.Sink
	// Aggregate enables covering-based subscription aggregation on every
	// node.
	Aggregate bool

	// Deprecated: ignored. Every connection's read loop processes its
	// own messages; there are no ingress workers to count.
	Shards int
	// Burst caps an unpaced egress burst (default 32; see
	// NodeConfig.Burst — paced links cut their bursts by transfer time
	// first).
	Burst int

	// LinkLoss injects one loss adversary on every overlay arc — the
	// loadgen's way of driving the same fault model at full rate — as a
	// wildcard runtime.LinkLoss fault (its From and To are ignored),
	// validated as the plan validates faults.
	LinkLoss *runtime.LinkLoss

	// MaxEgress bounds every node's total output-queue occupancy (see
	// NodeConfig.MaxEgress); 0 disables backpressure.
	MaxEgress int
	// Admission arms shedding in every broker and, when Enabled, the
	// node-local publisher gate on every node (see NodeConfig.Admission).
	// A deployed Plan gates in its admission sweep instead.
	Admission runtime.Admission

	// StateRoot, when set, gives every broker a durable state directory
	// (StateRoot/broker-<id>) — the write-ahead log and snapshots that
	// let a crashed broker warm-rejoin via RestartNode. StartCluster
	// checkpoints each broker's deployed routing table into it.
	StateRoot string

	// Heartbeat enables per-link failure detection on every node.
	Heartbeat HeartbeatConfig
	// OnPeerEvent receives every node's liveness transitions (the
	// transport's repair loop consumes them). Called from monitor
	// goroutines; must be safe for concurrent use.
	OnPeerEvent func(PeerEvent)
}

// Cluster is a set of live brokers started together. The Nodes map is
// stable for read-only use from tests; concurrent access while broker
// restarts are in play goes through Node(), which takes the cluster
// lock.
//
// A cluster also drives its own runs: ArmFaults strikes injected
// failures on its clock, and WaitIdle decides when a run is over.
type Cluster struct {
	Nodes map[msg.NodeID]*Node
	addrs map[msg.NodeID]string
	clock *runtime.WallClock
	// subs is the plan's static subscription population, where a
	// SessionDown finds its subscriber's edge.
	subs []*msg.Subscription

	// mu guards Nodes and addrs against RestartNode swapping entries
	// while drain polls and fault timers read them, and the fault state
	// below.
	mu sync.RWMutex
	// nodeCfgs retains each broker's construction config so RestartNode
	// can rebuild a fresh incarnation.
	nodeCfgs map[msg.NodeID]NodeConfig

	// timers are the armed faults; strikes counts those running. Stop
	// sets stopped, cancels the timers and waits for the strikes.
	timers  []*time.Timer
	strikes sync.WaitGroup
	stopped bool
	// replaced records that RestartNode swapped an incarnation in.
	replaced bool
	// retired holds the ledger of every incarnation RestartNode
	// replaced, so it stays in TotalStats.
	retired []*metrics.Collector
}

// StartCluster listens all brokers on ephemeral loopback ports, then
// connects every overlay link. On error, everything already started is
// stopped.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	p := cfg.Plan
	if p != nil && cfg.TimeScale <= 0 {
		cfg.TimeScale = p.Cfg.TimeScale
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.Clock == nil {
		if p != nil {
			// A plan's publication schedule starts near emulated time 0,
			// so a plan cluster needs an anchored, compressed clock — the
			// absolute wall clock would judge every delivery as eons
			// late.
			cfg.Clock = runtime.NewWallClock(cfg.TimeScale)
		} else {
			cfg.Clock = runtime.AbsoluteWallClock(1)
		}
	}
	var admission runtime.Admission
	if p == nil {
		var err error
		if p, err = cfg.assemble(); err != nil {
			return nil, err
		}
		admission = p.Cfg.Admission
	}
	c := &Cluster{
		Nodes:    make(map[msg.NodeID]*Node),
		addrs:    make(map[msg.NodeID]string),
		clock:    cfg.Clock,
		subs:     p.Subs,
		nodeCfgs: make(map[msg.NodeID]NodeConfig),
	}
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}
	for id := 0; id < p.Overlay.Graph.N(); id++ {
		nid := msg.NodeID(id)
		nc := NodeConfig{
			ID:          nid,
			TimeScale:   cfg.TimeScale,
			Plan:        p,
			Clock:       cfg.Clock,
			Sink:        cfg.Sink,
			Burst:       cfg.Burst,
			MaxEgress:   cfg.MaxEgress,
			Admission:   admission,
			Heartbeat:   cfg.Heartbeat,
			OnPeerEvent: cfg.OnPeerEvent,
		}
		if cfg.StateRoot != "" {
			nc.StateDir = filepath.Join(cfg.StateRoot, fmt.Sprintf("broker-%d", id))
		}
		c.nodeCfgs[nid] = nc
		n, err := NewNode(nc)
		if err != nil {
			return fail(err)
		}
		addr, err := n.Listen("127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		c.Nodes[nid] = n
		c.addrs[nid] = addr
	}
	for _, n := range c.Nodes {
		if err := n.ConnectPeers(c.addrs); err != nil {
			return fail(err)
		}
	}
	if cfg.StateRoot != "" {
		// Deploy-time checkpoint: the WAL a crashed broker recovers is the
		// deployed routing state plus its links' send watermarks
		// (registered by ConnectPeers just above).
		for _, n := range c.Nodes {
			if err := n.CheckpointTable(); err != nil {
				return fail(err)
			}
		}
	}
	return c, nil
}

// assemble builds the plan a cluster without one runs: its fields as one
// runtime.Config with no subscriptions and LinkLoss as a wildcard fault.
func (cfg ClusterConfig) assemble() (*runtime.Plan, error) {
	if cfg.Overlay == nil {
		return nil, errors.New("livenet: nil overlay")
	}
	rc := runtime.Config{
		Seed:          cfg.Seed,
		Scenario:      cfg.Scenario,
		Strategy:      cfg.Strategy,
		Overlay:       cfg.Overlay,
		Aggregate:     cfg.Aggregate,
		Subscriptions: []*msg.Subscription{},
		TimeScale:     cfg.TimeScale,
		Admission:     cfg.Admission,
	}
	if cfg.LinkLoss != nil {
		wild := *cfg.LinkLoss
		wild.From, wild.To = msg.None, msg.None
		rc.Faults = []runtime.Fault{wild}
	}
	return runtime.Assemble(rc)
}

// Node returns one broker under the cluster lock — the accessor to use
// while RestartNode may be swapping incarnations concurrently.
func (c *Cluster) Node(id msg.NodeID) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.Nodes[id]
}

// RestartNode replaces a crashed broker with a fresh incarnation
// recovered from its durable state directory: a new node (new listener,
// new epoch, send watermarks and routing table replayed from the WAL,
// the broker around it built by the plan's constructor),
// swapped into the cluster, connected out to its neighbors, and
// re-dialed by them at its new address. The new node counts the
// distinct subscriptions its log reinstalled (RestartReplayedSubs).
// onReady, when non-nil, runs after the new node is swapped in but
// before any connection exists — the transport hooks its plan-map swap
// and repair-engine notification there, so by the time frames flow the
// whole control plane already addresses the new incarnation. Requires a
// StateRoot-configured cluster.
func (c *Cluster) RestartNode(id msg.NodeID, onReady func(*Node)) (*Node, error) {
	c.mu.Lock()
	nc, ok := c.nodeCfgs[id]
	old := c.Nodes[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("livenet: no retained config for broker %d", id)
	}
	if nc.StateDir == "" {
		return nil, fmt.Errorf("livenet: broker %d has no state directory to recover from", id)
	}
	if old != nil && !old.Stopped() {
		// A restart without a preceding crash fault: take the broker down
		// the hard way first (no checkpoint — recovery works from the log).
		old.Crash()
	}
	n, err := NewNode(nc)
	if err != nil {
		return nil, err
	}
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		n.Stop()
		return nil, err
	}
	c.mu.Lock()
	if prev := c.Nodes[id]; prev != nil {
		c.retired = append(c.retired, prev.ledger)
	}
	c.Nodes[id] = n
	c.addrs[id] = addr
	c.replaced = true
	addrs := make(map[msg.NodeID]string, len(c.addrs))
	for k, v := range c.addrs {
		addrs[k] = v
	}
	c.mu.Unlock()
	if onReady != nil {
		onReady(n)
	}
	if err := n.ConnectPeers(addrs); err != nil {
		n.Stop()
		return n, err
	}
	// Surviving neighbors swap their connections to the reborn broker's
	// new address; their heartbeat monitors then see it alive again.
	for _, e := range nc.Plan.Overlay.Graph.Neighbors(id) {
		if nb := c.Node(e.To); nb != nil && !nb.Stopped() {
			if err := nb.ReconnectPeer(id, addr); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// Addr returns the TCP address of a broker.
func (c *Cluster) Addr(id msg.NodeID) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.addrs[id]
}

// Clock returns the cluster's shared time base. Clients that stamp or
// judge message times (publishers, subscribers) must use it.
func (c *Cluster) Clock() *runtime.WallClock { return c.clock }

// snapshotNodes copies the current node set under the cluster lock so
// iterating methods never race a concurrent restart's map swap.
func (c *Cluster) snapshotNodes() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	nodes := make([]*Node, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		nodes = append(nodes, n)
	}
	return nodes
}

// ArmFaults schedules injected failures on the cluster clock from now:
// link outages, broker crashes, broker restarts (through RestartNode,
// with onRestart as its onReady hook) and subscriber session outages of
// the plan's population. LinkLoss is not an event: StartCluster arms it on the
// links. Offsets are clock time (see the package comment), whatever the
// TimeScale. Stop cancels the faults that have not struck and waits for
// those striking.
func (c *Cluster) ArmFaults(faults []runtime.Fault, onRestart func(*Node)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	at := func(t vtime.Millis, id msg.NodeID, fn func(*Node)) {
		if _, ok := c.nodeCfgs[id]; !ok {
			err = fmt.Errorf("livenet: fault names broker %d, not in the cluster", id)
			return
		}
		c.timers = append(c.timers, c.clock.AfterFunc(t, func() { c.strike(id, fn) }))
	}
	for _, f := range faults {
		switch f := f.(type) {
		case runtime.LinkDown:
			at(f.Start, f.From, func(n *Node) { n.SetLinkDown(f.To, true) })
			at(f.End, f.From, func(n *Node) { n.SetLinkDown(f.To, false) })
		case runtime.BrokerCrash:
			at(f.At, f.ID, (*Node).Crash)
		case runtime.BrokerRestart:
			at(f.At, f.ID, func(*Node) { _, _ = c.RestartNode(f.ID, onRestart) })
		case runtime.SessionDown:
			i := slices.IndexFunc(c.subs, func(s *msg.Subscription) bool { return s.ID == f.Sub })
			if i < 0 {
				return fmt.Errorf("livenet: session fault on subscription %d, not in the cluster's plan", f.Sub)
			}
			sub := c.subs[i]
			at(f.Start, sub.Edge, func(n *Node) { n.SessionSuspend(sub) })
			at(f.End, sub.Edge, func(n *Node) { n.SessionResume(sub.ID) })
		}
	}
	return err
}

// strike runs one armed fault on broker id's current incarnation, unless
// Stop has begun.
func (c *Cluster) strike(id msg.NodeID, fn func(*Node)) {
	c.mu.RLock()
	n := c.Nodes[id]
	if c.stopped {
		c.mu.RUnlock()
		return
	}
	c.strikes.Add(1)
	c.mu.RUnlock()
	defer c.strikes.Done()
	fn(n)
}

// WaitIdle blocks until the cluster has run out of work after injected
// publisher messages, or fails with the LoadReport once timeout passes.
// Idle is Quiescent on two polls in a row: the second closes the window
// in which a frame sits in a kernel socket buffer. Once the cluster has
// seen a broker crash or a broker replaced, Quiescent's frame totals
// cannot close — a dead incarnation never accounts its inbound frames —
// so idle is instead every surviving node Settled with TotalStats
// unchanged for 500 ms; the Settled guard keeps a long paced transfer,
// seconds of frozen stats at TimeScale 1, from passing for the end of
// the run. Polls start at 200 µs and back off to 5 ms.
func (c *Cluster) WaitIdle(injected int, timeout time.Duration) error {
	const settleFor = 500 * time.Millisecond
	deadline := time.Now().Add(timeout)
	pause := 200 * time.Microsecond
	var last Stats
	since, idle := time.Now(), 0
	for {
		if s := c.TotalStats(); s != last {
			last, since = s, time.Now()
		}
		if c.faulted() {
			if time.Since(since) >= settleFor && c.Settled() {
				return nil
			}
		} else if c.Quiescent(injected) {
			if idle++; idle == 2 {
				return nil
			}
		} else {
			idle = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("livenet: cluster not idle after %v:\n%s", timeout, c.LoadReport())
		}
		time.Sleep(pause)
		pause = min(2*pause, 5*time.Millisecond)
	}
}

// faulted reports whether a broker has crashed or been replaced since
// the cluster started.
func (c *Cluster) faulted() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.replaced {
		return true
	}
	for _, n := range c.Nodes {
		if n.Stopped() {
			return true
		}
	}
	return false
}

// Stop cancels the armed faults, waits for any striking, and shuts every
// broker down.
func (c *Cluster) Stop() {
	c.mu.Lock()
	c.stopped = true
	for _, t := range c.timers {
		t.Stop()
	}
	c.timers = nil
	c.mu.Unlock()
	c.strikes.Wait()
	for _, n := range c.snapshotNodes() {
		n.Stop()
	}
}

// Ledgers returns every incarnation's ledger, those RestartNode replaced
// first. They are read, not copied at the swap, so a crashed node still
// counting its queued losses adds them too.
func (c *Cluster) Ledgers() []*metrics.Collector {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ledgers := slices.Clone(c.retired)
	for _, n := range c.Nodes {
		ledgers = append(ledgers, n.ledger)
	}
	return ledgers
}

// TotalStats sums the counters over every incarnation (Ledgers).
// Node(id).Stats() stays per incarnation.
func (c *Cluster) TotalStats() Stats {
	var total metrics.Ledger
	for _, l := range c.Ledgers() {
		s := l.Ledger()
		for _, info := range metrics.Counters {
			*info.Field(&total) += *info.Field(&s)
		}
	}
	return statsOf(total)
}

// AggregatedEntries sums the per-node aggregated-entry counts (live
// routing entries standing for more than one concrete subscription).
func (c *Cluster) AggregatedEntries() int {
	total := 0
	for _, n := range c.snapshotNodes() {
		total += n.AggregatedEntries()
	}
	return total
}

// PeakQueue returns the largest output-queue occupancy any broker
// reached.
func (c *Cluster) PeakQueue() int {
	peak := 0
	for _, n := range c.snapshotNodes() {
		if p := n.PeakQueue(); p > peak {
			peak = p
		}
	}
	return peak
}

// Quiescent reports whether the cluster has gone idle after `injected`
// publisher messages: every injected frame accepted, every
// broker-to-broker frame received, no receive or transfer in progress
// and every output queue empty. A true result can race a frame sitting
// in a kernel socket buffer only between a sender's write and the
// peer's read — the sent/received totals close exactly that window.
func (c *Cluster) Quiescent(injected int) bool {
	var sent, recv, pubs int64
	for _, n := range c.snapshotNodes() {
		s := n.load()
		if s.busy > 0 || s.inflight > 0 || s.queued > 0 {
			return false
		}
		sent += s.sentPeers
		recv += s.recvPeers
		pubs += s.recvPubs
	}
	return pubs >= int64(injected) && sent == recv
}

// Settled reports whether every still-running node is locally idle: no
// transfer pacing, no receive in progress, no queued work. Unlike
// Quiescent it ignores the cross-node frame totals (a crashed broker
// never accounts its inbound frames), so it is the idleness half of the
// faulty-run drain check.
func (c *Cluster) Settled() bool {
	for _, n := range c.snapshotNodes() {
		if n.Stopped() {
			continue
		}
		s := n.load()
		if s.busy > 0 || s.inflight > 0 || s.queued > 0 {
			return false
		}
	}
	return true
}

// LoadReport renders every node's quiescence counters — the evidence to
// attach when a drain loop times out waiting for Quiescent or Settled.
func (c *Cluster) LoadReport() string {
	var b strings.Builder
	for _, n := range c.snapshotNodes() {
		s := n.load()
		fmt.Fprintf(&b, "broker %d%s: busy=%d inflight=%d queued=%d sent=%d recvPeers=%d recvPubs=%d\n",
			n.ID(), map[bool]string{true: " (stopped)"}[n.Stopped()],
			s.busy, s.inflight, s.queued, s.sentPeers, s.recvPeers, s.recvPubs)
	}
	return b.String()
}
