package livenet

import (
	"net"
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
//
// The ring is also the edge's send buffer. deliver only retains: the
// frames past the session's sent mark wait in their slots until flush
// writes them, oldest first, with one writev. A read loop flushes the
// sessions it delivered to once its connection's buffer runs dry
// (datapath.go), so a batch of k deliveries to one subscriber costs
// one system call instead of k, a batch of one is the same single write
// it always was, and nothing waits on a timer.

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
// session's deliveries against its flushes and its resume: sequence
// assignment and the ring write of a delivery happen under it, so does
// the wire write of a flush, and so does a resume's reattach-and-replay
// — whichever goroutine writes, it writes the sequences past the sent
// mark in order and moves the mark before it lets go, so the subscriber
// sees one gapless run and a live delivery can never reach it ahead of
// the replayed sequences below it. The connection's own lock is only
// ever taken inside mu, never the other way round.
type session struct {
	sub *msg.Subscription

	mu sync.Mutex
	// peer is the attached subscriber connection; nil for a modeled
	// session (SessionSuspend), which has no wire and retains sequence
	// and deadline data only.
	peer *peerConn
	seq  uint64 // last assigned delivery sequence
	// sent is the last sequence handed to the wire (or given up on): the
	// deliveries in (sent, seq] sit in the ring waiting for flush.
	sent uint64
	// lastAck is the modeled resume token: the sequence last delivered
	// before a scheduled suspension (real clients carry their token
	// themselves).
	lastAck uint64
	// ring grows to sessionRingDefault slots, then wraps: head is the
	// oldest retained delivery. Sequences are consecutive, so the ring
	// holds exactly (seq − len(ring), seq].
	ring []sessDelivery
	head int
}

// sessionFor returns the subscription's session, creating it — attached
// to peer, numbering deliveries from seq+1 — on first use. Caller holds
// n.mu exclusively: read loops read the map under the shared lock.
func (n *Node) sessionFor(sub *msg.Subscription, peer *peerConn, seq uint64) *session {
	s, ok := n.sessions[sub.ID]
	if !ok {
		s = &session{sub: sub, peer: peer, seq: seq, sent: seq}
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

// deliver assigns the next delivery sequence to the message w is
// processing and retains it in the ring; it writes nothing. With a wire
// attached, the message's FrameData frame (w.dataFrame: encoded once
// per message, sequence fields zero) is copied into the ring slot and
// the session's sequence stamped into the copy — the bytes flush will
// send and a resume will replay. A session without a wire records
// sequence and deadline only, and the frame is never built on its
// account. It reports whether the caller now owes the session a flush:
// true for the delivery that moves it from nothing unsent to one frame
// unsent — whoever adds to a run someone else started is covered by that
// worker's flush, which sends everything past the mark.
func (s *session) deliver(w *worker, allowed vtime.Millis) (owesFlush bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq-s.sent >= sessionRingDefault {
		// The ring is full of unsent frames (read loops of other
		// connections kept delivering while the one that owes the flush
		// was busy): send them before the oldest slot is reused.
		s.flushLocked(w)
	}
	s.seq++
	var d *sessDelivery
	if len(s.ring) < sessionRingDefault {
		s.ring = append(s.ring, sessDelivery{})
		d = &s.ring[len(s.ring)-1]
	} else {
		d = &s.ring[s.head]
		s.head = (s.head + 1) % len(s.ring)
	}
	d.seq, d.published, d.allowed, d.frame = s.seq, w.m.Published, allowed, d.frame[:0]
	if s.peer == nil {
		s.sent = s.seq
		return false
	}
	if frame := w.dataFrame(); frame != nil {
		d.frame = append(d.frame, frame...)
		msg.PutDataSeq(d.frame, s.seq, s.seq)
	}
	return s.seq-s.sent == 1
}

// flush writes the deliveries waiting past the sent mark to the attached
// subscriber, oldest first, straight from their ring slots: one write
// for a single frame, one writev for a run.
func (s *session) flush(w *worker) {
	s.mu.Lock()
	s.flushLocked(w)
	s.mu.Unlock()
}

// flushLocked is flush for a caller holding s.mu. w lends the writev
// scratch: any worker may flush any session. Only a session with a wire
// ever has deliveries past its mark.
func (s *session) flushLocked(w *worker) {
	unsent := int(s.seq - s.sent)
	if unsent == 0 {
		return
	}
	s.sent = s.seq
	w.bufs = w.bufs[:0]
	for i := len(s.ring) - unsent; i < len(s.ring); i++ {
		// A slot recorded without a frame (it could not be encoded) has
		// nothing to send.
		if f := s.ring[(s.head+i)%len(s.ring)].frame; len(f) > 0 {
			w.bufs = append(w.bufs, f)
		}
	}
	// Dead subscribers are fine: the frames stay retained for a resume.
	switch len(w.bufs) {
	case 0:
	case 1:
		_, _ = s.peer.writeBuf(w.bufs[0])
	default:
		w.wv = net.Buffers(w.bufs)
		_, _ = s.peer.writeBuffers(&w.wv)
	}
}

// replay walks the retained deliveries past the resume token, oldest
// first, through the deadline gate: at the edge the residual path is the
// local client connection — zero modeled delay, σ = 0 — so the admission
// CDF degenerates to "slack ≥ 0". A delivery whose bound still holds is
// written to `to` and counted replayed; an expired one is counted
// instead of arriving late. A nil `to` (a modeled session) does the accounting
// without any wire writes. Deliveries still waiting for their flush are
// past any token a client can hold, so a replay onto a wire sends them
// too and moves the sent mark to seq: a resume landing between deliver
// and flush puts every retained frame on the new connection once, in
// order, and leaves the flush nothing to repeat. Caller holds s.mu.
func (s *session) replay(to *peerConn, after uint64, now vtime.Millis) (replayed, expired int) {
	if to != nil {
		s.sent = s.seq
	}
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
			if !dead {
				_, err := to.writeBuf(d.frame)
				dead = err != nil
			}
		}
		replayed++
	}
	return replayed, expired
}

// accountResume charges one session resume to the node's ledger.
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
// subscription: the modeled half of a SessionDown fault, standing in
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

// SessionResume ends a modeled session outage with the accounting a
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
