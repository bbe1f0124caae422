package livenet

import (
	"sync"

	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// This file is the broker side of resumable client sessions. Every
// local delivery travels to the subscriber as a FrameData frame carrying
// a per-session delivery sequence number, and is retained — as the
// finished wire frame — in a bounded replay ring. A subscriber that
// loses its connection (client crash, edge network blip) redials and
// sends a FrameResume with its resume token (subscription id + last
// delivered sequence); the broker reattaches the connection and replays
// the ring entries past the token through the deadline gate: a retained
// delivery whose bound has already expired is dropped as
// DroppedDeadline — a resumed subscriber never receives a late message,
// and the sequence numbers make redelivery exactly-once.

// sessionRingDefault bounds the per-session replay ring (shared with
// the simulator's session model so the resume ledgers agree).
const sessionRingDefault = runtime.SessionRingLimit

// tableSub returns the subscription one of this broker's routing
// entries names, or nil if no entry routes it. Caller holds n.mu; the
// scan is linear in the table — resumes are control-plane rare.
func (n *Node) tableSub(id msg.SubID) *msg.Subscription {
	for _, src := range n.table.Sources() {
		for _, e := range n.table.Entries(src) {
			if e.Sub.ID == id {
				return e.Sub
			}
		}
	}
	return nil
}

// sessDelivery is one retained delivery: its session sequence, the
// deadline data the resume gate needs, and the finished FrameData wire
// frame (empty when the delivery was recorded without a wire). The
// node's epoch is fixed for its lifetime, so a retained frame never
// needs re-assembly; the slot's frame storage is reused when the ring
// wraps.
type sessDelivery struct {
	seq       uint64
	published vtime.Millis
	allowed   vtime.Millis
	frame     []byte
}

// session is one subscriber's resumable delivery state. mu orders a
// session's deliveries against its resume: sequence assignment, the
// ring write and the wire write of one delivery happen under it, and so
// does a resume's reattach-and-replay — a live delivery can never reach
// the subscriber ahead of the replayed sequences below it.
type session struct {
	sub *msg.Subscription

	mu sync.Mutex
	// peer is the attached subscriber connection; nil for a plan-mode
	// session (SessionSuspend), which has no wire and retains sequence
	// and deadline data only.
	peer *peerConn
	seq  uint64 // last assigned delivery sequence
	// lastAck is the plan-mode resume token: the sequence last delivered
	// before a scheduled suspension (real clients carry their token
	// themselves).
	lastAck uint64
	// ring grows to sessionRingDefault slots, then wraps: head is the
	// oldest retained delivery.
	ring []sessDelivery
	head int
}

// sessionFor returns the subscription's session, creating it — attached
// to peer, numbering deliveries from seq+1 — on first use. Caller holds
// n.mu exclusively: shard workers read the map under the shared lock.
func (n *Node) sessionFor(sub *msg.Subscription, peer *peerConn, seq uint64) *session {
	s, ok := n.sessions[sub.ID]
	if !ok {
		s = &session{sub: sub, peer: peer, seq: seq}
		n.sessions[sub.ID] = s
	}
	return s
}

// attach points the session at a (new) subscriber connection.
func (s *session) attach(peer *peerConn) {
	s.mu.Lock()
	s.peer = peer
	s.mu.Unlock()
}

// deliver assigns the next delivery sequence, retains the delivery in
// the ring and writes it to the attached subscriber. frame is the
// message's finished FrameData frame with zero sequence fields (callers
// reuse their encode scratch): it is copied into the ring slot and the
// session's sequence stamped into the copy, which is what goes on the
// wire. A session without a wire records sequence and deadline only.
func (s *session) deliver(frame []byte, published, allowed vtime.Millis) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	var d *sessDelivery
	if len(s.ring) < sessionRingDefault {
		s.ring = append(s.ring, sessDelivery{})
		d = &s.ring[len(s.ring)-1]
	} else {
		d = &s.ring[s.head]
		s.head = (s.head + 1) % len(s.ring)
	}
	d.seq, d.published, d.allowed, d.frame = s.seq, published, allowed, d.frame[:0]
	if s.peer == nil || frame == nil {
		return
	}
	d.frame = append(d.frame, frame...)
	msg.PutDataSeq(d.frame, s.seq, s.seq)
	_ = s.peer.writeBuf(d.frame) // dead subscribers are fine
}

// replay walks the retained deliveries past the resume token, oldest
// first, through the deadline gate: at the edge the residual path is the
// local client connection — zero modeled delay, σ = 0 — so the admission
// CDF degenerates to "slack ≥ 0". A delivery whose bound still holds is
// written to `to` and counted replayed; an expired one is counted
// instead of arriving late. A nil `to` (plan mode) does the accounting
// without any wire writes. Caller holds s.mu.
func (s *session) replay(to *peerConn, after uint64, now vtime.Millis) (replayed, expired int) {
	dead := false
	for i := range s.ring {
		d := &s.ring[(s.head+i)%len(s.ring)]
		if d.seq <= after {
			continue // already delivered before the disconnect
		}
		if d.allowed <= 0 || now-d.published > d.allowed {
			expired++
			continue
		}
		if to != nil {
			if len(d.frame) == 0 {
				continue // recorded without a wire: nothing to send
			}
			// A failed write means the reconnect died already; the next
			// resume replays.
			dead = dead || to.writeBuf(d.frame) != nil
		}
		replayed++
	}
	return replayed, expired
}

// accountResume charges one session resume to the node counters and the
// metrics sink.
func (n *Node) accountResume(replayed, expired int) {
	n.count(metrics.SessionsResumed, 1)
	n.count(metrics.DroppedDeadline, expired)
	n.count(metrics.ReplayedMsgs, replayed)
}

// handleResume reattaches a reconnected subscriber and replays the
// retained deliveries past its resume token, holding the session lock
// across both so no live delivery overtakes the replay.
func (n *Node) handleResume(id msg.SubID, lastSeq uint64, peer *peerConn) {
	n.mu.Lock()
	sess, ok := n.sessions[id]
	if !ok {
		// A restarted incarnation lost its replay rings with the crash,
		// but the WAL reinstalled the routing entry: if this broker still
		// routes the subscription, reattach under a fresh session that
		// continues the client's sequence numbering — the retained window
		// died with the old process, so nothing replays, but later
		// deliveries must not fall below the client's dedup cursor.
		sub := n.tableSub(id)
		if sub == nil {
			n.mu.Unlock()
			return // unknown subscription: nothing to reattach or replay
		}
		sess = n.sessionFor(sub, peer, lastSeq)
	}
	n.mu.Unlock()

	sess.mu.Lock()
	sess.peer = peer
	replayed, expired := sess.replay(peer, lastSeq, n.clock.Now())
	sess.mu.Unlock()
	n.accountResume(replayed, expired)
}

// SessionSuspend begins broker-side delivery retention for one static
// subscription: the plan-mode half of a SessionDown fault, standing in
// for a real subscriber losing its connection. The current delivery
// sequence becomes the resume token SessionResume gates against.
func (n *Node) SessionSuspend(sub *msg.Subscription) {
	n.mu.Lock()
	s := n.sessionFor(sub, nil, 0)
	n.mu.Unlock()
	s.mu.Lock()
	s.lastAck = s.seq
	s.mu.Unlock()
}

// SessionResume ends a plan-mode session outage with the accounting a
// real client's FrameResume produces — session resumed, retained
// deliveries past the token replayed while their bound still holds,
// expired ones charged to DroppedDeadline — without any wire writes.
// The session is dropped afterwards: retention restarts fresh at the
// next suspension.
func (n *Node) SessionResume(id msg.SubID) {
	n.mu.Lock()
	sess, ok := n.sessions[id]
	if !ok {
		n.mu.Unlock()
		return
	}
	sess.mu.Lock()
	replayed, expired := sess.replay(nil, sess.lastAck, n.clock.Now())
	wired := sess.peer != nil
	sess.mu.Unlock()
	if !wired {
		delete(n.sessions, id)
	}
	n.mu.Unlock()
	n.accountResume(replayed, expired)
}
