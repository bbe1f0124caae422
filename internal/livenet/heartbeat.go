package livenet

import (
	"time"

	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// HeartbeatConfig enables per-link failure detection on a live node.
// Each node probes every overlay neighbor with a heartbeat frame per
// Interval and monitors the silence on each inbound link: a neighbor
// quiet for more than 2×Interval is suspected, one quiet past Timeout is
// declared dead. All durations are emulated milliseconds; wall time is
// scaled by the node's TimeScale like every other emulated delay.
type HeartbeatConfig struct {
	// Interval is the probe period; 0 disables heartbeats entirely.
	Interval vtime.Millis
	// Timeout is the silence after which the link is declared dead;
	// 0 defaults to 4×Interval.
	Timeout vtime.Millis
}

// enabled reports whether heartbeating is configured.
func (h HeartbeatConfig) enabled() bool { return h.Interval > 0 }

// timeout returns the dead-declaration silence with the default applied.
func (h HeartbeatConfig) timeout() vtime.Millis {
	if h.Timeout > 0 {
		return h.Timeout
	}
	return 4 * h.Interval
}

// Peer liveness states of the suspect → dead machine.
const (
	peerAlive = iota
	peerSuspect
	peerDead
)

// PeerEvent is one liveness transition observed by a node's heartbeat
// monitor: the directed arc Peer→Observer was confirmed dead (or heard
// again after being declared dead, Restored). Times are emulated ms on
// the node's clock.
type PeerEvent struct {
	Observer  msg.NodeID
	Peer      msg.NodeID
	Restored  bool
	At        vtime.Millis
	LastHeard vtime.Millis
}

// startHeartbeats arms the liveness machinery once peers are connected:
// the shared monitor plus one probe loop per outgoing link. Caller is
// ConnectPeers, after every sender is up.
func (n *Node) startHeartbeats() {
	if !n.cfg.Heartbeat.enabled() {
		return
	}
	now := n.clock.Now()
	n.hbMu.Lock()
	for _, e := range n.cfg.Overlay.Graph.Neighbors(n.cfg.ID) {
		// Every neighbor starts alive as of "now": detection latency is
		// measured from real silence, not from process start-up.
		n.lastHeard[e.To] = now
		n.peerState[e.To] = peerAlive
	}
	n.hbMu.Unlock()
	for to, pc := range n.peers {
		n.wg.Add(1)
		go n.heartbeatLoop(to, pc)
	}
	n.wg.Add(1)
	go n.monitorLoop()
}

// clockScale is the wall milliseconds per millisecond of clock time:
// the clock's compression, which equals the configured TimeScale on
// runtime deployments, but not in the throughput-bench mode where
// TimeScale ≈ 0 zeroes the pacing sleeps while the clock stays
// wall-true. Heartbeat pacing and fault offsets are read on it: the
// monitor measures silence on the node's clock.
func clockScale(clock runtime.Clock, timeScale float64) float64 {
	if wc, ok := clock.(*runtime.WallClock); ok {
		return wc.Scale()
	}
	return timeScale
}

// heartbeatLoop probes one neighbor every Interval. Probes skip links
// taken down by injected faults (the outage must become visible to the
// far monitor) and never touch the quiescence counters — liveness
// traffic is control plane, not data plane.
func (n *Node) heartbeatLoop(to msg.NodeID, pc *peerConn) {
	defer n.wg.Done()
	period := vtime.ToDuration(n.cfg.Heartbeat.Interval * clockScale(n.clock, n.cfg.TimeScale))
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	body := msg.AppendHeartbeat(nil, n.cfg.ID, n.epoch.Load())
	for {
		select {
		case <-n.stopped:
			return
		case <-ticker.C:
		}
		n.mu.RLock()
		down := n.linkDown[to]
		n.mu.RUnlock()
		if down {
			continue
		}
		_ = pc.writeFrame(msg.FrameHeartbeat, body) // silence is the signal
	}
}

// monitorLoop runs the suspect → dead state machine over every inbound
// link, polling at half the probe period.
func (n *Node) monitorLoop() {
	defer n.wg.Done()
	interval := n.cfg.Heartbeat.Interval
	timeout := n.cfg.Heartbeat.timeout()
	period := vtime.ToDuration(interval / 2 * clockScale(n.clock, n.cfg.TimeScale))
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopped:
			return
		case <-ticker.C:
		}
		now := n.clock.Now()
		var events []PeerEvent
		n.hbMu.Lock()
		for peer, heard := range n.lastHeard {
			silence := now - heard
			switch {
			case silence > timeout && n.peerState[peer] != peerDead:
				n.peerState[peer] = peerDead
				events = append(events, PeerEvent{
					Observer: n.cfg.ID, Peer: peer, At: now, LastHeard: heard,
				})
			case silence > 2*interval && n.peerState[peer] == peerAlive:
				n.peerState[peer] = peerSuspect
			}
		}
		n.hbMu.Unlock()
		if n.cfg.OnPeerEvent != nil {
			for _, ev := range events {
				n.cfg.OnPeerEvent(ev)
			}
		}
	}
}

// heartbeatReceived refreshes one inbound link's liveness; a probe from
// a neighbor previously declared dead revives the link (transient outage
// over) and reports the restoration.
func (n *Node) heartbeatReceived(from msg.NodeID) {
	if !n.cfg.Heartbeat.enabled() {
		return
	}
	now := n.clock.Now()
	var restored bool
	n.hbMu.Lock()
	if _, known := n.lastHeard[from]; !known {
		n.hbMu.Unlock()
		return // not an overlay neighbor
	}
	n.lastHeard[from] = now
	if n.peerState[from] == peerDead {
		restored = true
	}
	n.peerState[from] = peerAlive
	n.hbMu.Unlock()
	if restored && n.cfg.OnPeerEvent != nil {
		n.cfg.OnPeerEvent(PeerEvent{
			Observer: n.cfg.ID, Peer: from, Restored: true, At: now, LastHeard: now,
		})
	}
}

// PeerLiveness reports the monitor's view of one inbound link: when the
// neighbor was last heard and whether it is currently declared dead.
func (n *Node) PeerLiveness(peer msg.NodeID) (lastHeard vtime.Millis, dead bool) {
	n.hbMu.Lock()
	defer n.hbMu.Unlock()
	return n.lastHeard[peer], n.peerState[peer] == peerDead
}

// MutateTable runs fn with the node's routing-table write lock held,
// excluding every concurrent matcher. The topology
// repairer applies its table deltas through it.
func (n *Node) MutateTable(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn()
}
