package livenet

import (
	"net"
	"slices"
	"time"

	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// This file is the node's data path — every message takes it — built to
// amortize every per-message cost:
//
//   - Ingress and processing: each connection's read loop decodes frames
//     zero-copy into pooled messages and runs each one to completion
//     (process) as soon as it is decoded — or, on a broker link, as soon
//     as the link's receiving half releases it in order — with its own
//     broker.Processor. One connection's messages are therefore
//     processed in arrival order, and the read loops of different
//     connections run broker matching and enqueueing in parallel,
//     synchronizing only on the per-queue locks and the striped dedup set
//     inside the broker. Subscription floods take the node lock
//     exclusively, parking every read loop's processing. Local
//     deliveries are retained in the subscriber's session ring as they
//     are made and leave when the connection's buffer runs dry (or after
//     maxIngressBatch messages): one writev per subscriber per batch
//     (session.go), the edge's counterpart of the egress burst below.
//     The control frames a read loop relays (floods, control.go) are
//     framed in each outgoing connection's own buffer and leave with the
//     same flush: one write per link per batch.
//   - Egress: each sender drains its link queue in bursts selected at
//     one scheduling instant (core.Queue.PopBurstWhile: one score sweep,
//     the strategy's send order). A burst is a unit of time, not of
//     count: every entry taken charges its own sampled transfer time
//     (size × rate, the paper's per-KB link model), and the burst ends
//     as soon as that accumulated time is something a timer can resolve
//     (paceQuantum) — or at the Burst cap. The sender sleeps until the
//     burst is due to end (timer overshoot does not slow the link), then
//     writes it once. So a paced link sends one pick per transfer, as the
//     simulator does, and whatever arrives during a transfer is scheduled
//     at the next pick; an unpaced link, whose transfer times never add
//     up to the quantum, keeps bursting to the cap.
//   - The hop itself — sequence numbers, the adversary, link-time draws,
//     the reorder and base rules on the way out, stale-epoch rejection
//     and dedup on the way in — is runtime/link.go, the one place its
//     contract lives, shared with the simulator; the sender and read
//     loops here keep the pacing wait, the framing (reliable.go) and the
//     socket.

const (
	// defaultBurst caps the egress burst (NodeConfig.Burst default).
	defaultBurst = 32
	// paceQuantum is the shortest wall time a pacing sleep can be trusted
	// to resolve: an egress burst stops growing once its accumulated
	// transfer time reaches it, and a processing delay shorter than it
	// is charged to the clock stamp instead of slept.
	paceQuantum = time.Millisecond
	// maxIngressBatch caps how many messages a read loop processes before
	// it flushes their deliveries, however much its connection has
	// buffered. Control frames do not count: what they queue is bounded
	// by each link's ctlLimit instead.
	maxIngressBatch = 64
)

// readLoop consumes frames from one inbound connection: the hello
// handshake, then message frames — a publisher's FrameMessage, a neighbor
// broker's FrameData through the link's stale-epoch check and
// dedup/reorder state — decoded zero-copy into pooled messages and
// processed in order, each behind the MaxEgress gate. Control frames
// (subscribe, unsubscribe, resume) run inline once the deliveries of the
// data ahead of them are flushed: control never overtakes data. A
// neighbor's floods name it as their arrival link, which they skip on
// the way out; the relays wait in the outgoing links' control buffers
// for the idle flush, like the deliveries.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()

	ft, body, err := msg.ReadFrame(conn)
	if err != nil || ft != msg.FrameHello {
		return
	}
	role, peerID, peerEpoch, err := msg.DecodeHello(body)
	if err != nil {
		return
	}
	if role != msg.RoleBroker {
		peerID = msg.None // client hellos carry a client id, not a broker's
	} else {
		n.observeEpoch(peerID, peerEpoch)
	}
	peer := &peerConn{conn: conn}

	fr := msg.NewFrameReader(conn)
	var dec msg.Decoder
	w := &worker{proc: n.b.NewProcessor(), epoch: n.epoch.Load()}
	defer w.flush(n)
	// lr is the receiving half of a broker link (client connections carry
	// no link frames), deliver its hand-up scratch.
	var lr runtime.LinkRecv
	var deliver []*msg.Message
	if role == msg.RoleBroker {
		lr = runtime.NewLinkRecv(n.cfg.Plan.Cfg.Reliability.Window, nodeCount{n})
	}

	// run processes accepted messages in order, each behind the MaxEgress
	// gate. On shutdown it releases the rest unprocessed, with their
	// inflight holds, and reports false.
	run := func(ms ...*msg.Message) bool {
		for i, m := range ms {
			if !n.gate(w) {
				for _, r := range ms[i:] {
					r.Release()
				}
				n.inflight.Add(-int32(len(ms) - i))
				return false
			}
			n.process(w, m)
		}
		return true
	}

	for {
		fb := msg.GetFrameBuf()
		ft, body, err := fr.Next(fb)
		if err != nil {
			fb.Release()
			return
		}
		// Every case — accepted, skipped or ignored — falls through to the
		// idle flush below the switch.
		switch ft {
		case msg.FrameMessage:
			if role != msg.RolePublisher {
				fb.Release() // brokers relay FrameData; subscribers publish nothing
				break
			}
			m := msg.GetMessage()
			took, derr := dec.DecodeMessageInto(m, body, fb)
			if !took {
				fb.Release()
			}
			if derr != nil {
				m.Release() // tolerate one corrupt frame; connection survives
				break
			}
			if m.Ingress != n.cfg.ID {
				// Publishers must publish through their ingress broker.
				m.Release()
				break
			}
			if !n.admitPub() {
				// Rejected at the door: the frame still counts as accepted
				// (quiescence compares recvPubs against injected frames).
				n.recvPubs.Add(1)
				m.Release()
				break
			}
			// inflight rises before the receive counter so a quiescence
			// poll can never observe the counters settled while this
			// message still awaits its flush.
			n.inflight.Add(1)
			n.recvPubs.Add(1)
			if !run(m) {
				return
			}
		case msg.FrameData:
			if role != msg.RoleBroker {
				fb.Release()
				break
			}
			seq, base, fepoch, mb, derr := msg.DecodeDataHeader(body)
			if derr != nil {
				fb.Release()
				break
			}
			if lr.Stale(fepoch, n.epochFloor(peerID)) {
				// Sent by a dead incarnation: counted toward the wire
				// totals (like a mangled drop), never processed.
				fb.Release()
				n.recvPeers.Add(1)
				break
			}
			m := msg.GetMessage()
			took, derr := dec.DecodeMessageInto(m, mb, fb)
			if !took {
				fb.Release()
			}
			if derr != nil {
				m.Release()
				break
			}
			// inflight covers the frame from here until the flush after its
			// processing (or the dedup/reorder state consumes it) — a frame
			// parked in the reorder buffer keeps its hold, so quiescence
			// cannot blink true while a gap is still being healed.
			n.inflight.Add(1)
			n.recvPeers.Add(1)
			// Messages come back in restored FIFO order and are processed
			// in that order. A suppressed duplicate is released here (and
			// its inflight hold dropped); a frame parked out of order keeps
			// its hold until it drains.
			var dup bool
			deliver, dup = lr.Accept(seq, base, m, deliver[:0])
			if dup {
				m.Release()
				n.inflight.Add(-1)
			}
			if !run(deliver...) {
				return
			}
		case msg.FrameDataDrop:
			// The loss shim's mangled write: counted so the wire totals
			// balance, never processed.
			fb.Release()
			if role == msg.RoleBroker {
				n.recvPeers.Add(1)
			}
		case msg.FrameSubscribe:
			s, derr := msg.DecodeSubscription(body)
			if derr != nil {
				fb.Release()
				break
			}
			w.flushData(n)
			var local *peerConn
			if role == msg.RoleSubscriber {
				local = peer
			}
			// The flood relays body as received, copied into the links'
			// control buffers, so the frame buffer goes back to its pool
			// right after.
			n.handleSubscribe(w, s, local, body, peerID)
			fb.Release()
		case msg.FrameUnsubscribe:
			id, derr := msg.DecodeUnsubscribe(body)
			fb.Release()
			if derr != nil {
				break
			}
			w.flushData(n)
			n.handleUnsubscribe(w, id, peerID)
		case msg.FrameResume:
			sub, lastSeq, derr := msg.DecodeResume(body)
			fb.Release()
			if derr != nil || role != msg.RoleSubscriber {
				break
			}
			w.flushData(n)
			n.handleResume(sub, lastSeq, peer)
		case msg.FrameHeartbeat:
			// Liveness bookkeeping only — no quiescence counters, no
			// flush: heartbeats are control-plane noise the data plane
			// must not feel.
			if from, fepoch, derr := msg.DecodeHeartbeat(body); derr == nil {
				n.observeEpoch(from, fepoch)
				n.heartbeatReceived(from)
			}
			fb.Release()
		default:
			fb.Release() // a repeated FrameHello, an unknown type: ignored
		}
		// The idle flush: send what the processed messages delivered and
		// the control frames queued behind them once the batch cap is
		// reached or the connection's buffer runs dry — the next Next
		// would block, and with a crash upstream the frame that would
		// otherwise trigger the flush may never come.
		if w.held >= maxIngressBatch || fr.Buffered() == 0 {
			w.flush(n)
		}
	}
}

// gate is end-to-end backpressure: while the node's total output backlog
// is at MaxEgress, it holds the calling read loop before its next
// message instead of letting it process. The paused read loop stops
// draining its socket, the kernel buffers fill, and TCP pushes back on
// the upstream sender — so a slow subscriber bounds queue growth at
// every hop on the path instead of ballooning this node's queues. Every
// reading connection can pass the gate with one message before that
// message's enqueues show, so occupancy stays within MaxEgress plus one
// message's fan-out per reading connection. The loop's unflushed
// deliveries and control frames leave before it waits. Reports false on
// shutdown.
func (n *Node) gate(w *worker) bool {
	max := int64(n.cfg.MaxEgress)
	if max <= 0 || n.egress.Load() < max {
		return true
	}
	w.flush(n)
	for n.egress.Load() >= max {
		select {
		case <-n.stopped:
			return false
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	return true
}

// admitPub is the node-local admission gate (NodeConfig.Admission): a
// publisher message is turned away while the node's
// total output backlog — queued entries plus messages accepted whose
// read loop has not flushed them yet — sits at or beyond the configured
// queue threshold. The live analogue of the plan-side saturation
// rejection; always true when node-local admission is off.
func (n *Node) admitPub() bool {
	if !n.cfg.Admission.Enabled {
		return true
	}
	if n.egress.Load()+int64(n.inflight.Load()) >= int64(n.cfg.Admission.MaxQueue) {
		n.count(metrics.PubsRejected, 1)
		return false
	}
	return true
}

// worker is one read loop's processing state: its broker.Processor and
// the scratch process reuses across messages.
type worker struct {
	proc  *broker.Processor
	outs  []sessOut
	wakes []chan struct{}

	// The message being processed and its FrameData frame (dataFrame).
	m     *msg.Message
	epoch uint32 // the node's, fixed for its lifetime
	enc   []byte
	frame []byte

	// owed lists the sessions holding deliveries this worker must flush;
	// held counts the messages processed since the last flush, whose
	// hold on the node's inflight counter that flush releases. bufs and
	// wv are the flush's writev scratch.
	owed []*session
	held int32
	bufs [][]byte
	wv   net.Buffers

	// links lists the broker links this worker queued control frames on
	// since its last idle flush.
	links []*peerConn
}

// sessOut is one local delivery bound for a session.
type sessOut struct {
	sess    *session
	allowed vtime.Millis
}

// dataFrame returns the FrameData frame of the message being processed,
// sequence fields zero (each session stamps its own into its ring copy),
// encoding it on first use — a message delivered only to sessions
// without a wire is never encoded. Nil when the message cannot be
// framed: its deliveries are recorded, never written.
func (w *worker) dataFrame() []byte {
	if w.frame == nil {
		frame, err := msg.AppendDataFrame(w.enc[:0], 0, 0, w.epoch, w.m)
		w.enc = frame[:0]
		if err != nil {
			return nil
		}
		w.frame = frame
	}
	return w.frame
}

// flushData writes what this worker's deliveries left waiting in
// session rings, one write per session, and only then releases the
// processed messages' hold on inflight: Quiescent and Settled cannot
// read idle while a ring holds unsent frames. It leaves the queued
// control frames alone: a read loop flushes its data before each
// control frame, and the relays it queues wait for the idle flush.
func (w *worker) flushData(n *Node) {
	for i, s := range w.owed {
		s.flush(w)
		w.owed[i] = nil
	}
	w.owed = w.owed[:0]
	n.inflight.Add(-w.held)
	w.held = 0
}

// flush is the idle flush: the deliveries (flushData), then every link
// this worker queued control frames on, one write each (a link another
// writer emptied first costs nothing). A queued frame holds no inflight
// count: like a control frame being processed, or one in a socket
// buffer, it is invisible to Quiescent and Settled, and it waits no
// longer than the read loop's batch. A hold would keep a node from ever
// reading idle while a subscriber churns faster than its read loop
// drains the connection.
func (w *worker) flush(n *Node) {
	w.flushData(n)
	for i, p := range w.links {
		p.flushCtl()
		w.links[i] = nil
	}
	w.links = w.links[:0]
}

// queueCtl queues one control frame on a broker link for this worker's
// idle flush.
func (w *worker) queueCtl(p *peerConn, frameType byte, body []byte) {
	p.queueFrame(frameType, body)
	if !slices.Contains(w.links, p) {
		w.links = append(w.links, p)
	}
}

// process handles one message arrival: processing delay, then the shared
// broker logic — match, deliver locally, enqueue toward next hops — and
// finally the wire side-effects (session deliveries, sender wake-ups).
// The deliveries wait in their sessions' rings, and the message keeps its
// hold on inflight, until the worker's next flush.
func (n *Node) process(w *worker, m *msg.Message) {
	// Processing delay, in link time. A delay too short for a
	// sleep to resolve is not slept — time.Sleep would round it up to the
	// timer granularity and hold the whole connection for that long — but
	// charged to the instant the message is processed at, which is what
	// the simulator does with PD: a pure delay, serializing nothing.
	now := n.clock.Now()
	if pd := n.b.Params().PD; pd > 0 {
		if d := n.link.Wall(pd); d >= paceQuantum {
			w.flush(n) // earlier deliveries do not wait out this sleep
			time.Sleep(d)
			now = n.clock.Now()
		} else {
			now += pd
		}
	}
	n.count(metrics.Receptions, 1)

	// The message may enter up to nlinks output queues, whose senders
	// release their references concurrently the moment Process enqueues;
	// retain the worst case up front and return the unused references
	// once the actual fan-out is known.
	links := n.nlinks
	m.Retain(links)

	w.outs = w.outs[:0]
	w.wakes = w.wakes[:0]
	n.mu.RLock()
	res := w.proc.Process(m, now)
	if !res.Duplicate {
		for _, d := range res.Deliveries {
			if sess := n.sessions[d.SubID]; sess != nil {
				w.outs = append(w.outs, sessOut{sess, d.Allowed})
			}
		}
		for _, hop := range res.EnqueuedHops {
			if wk := n.wake[hop]; wk != nil {
				w.wakes = append(w.wakes, wk)
			}
		}
	}
	n.mu.RUnlock()

	n.charge.Result(n.cfg.ID, m, &res, now)
	if res.Duplicate {
		m.ReleaseN(links + 1)
		w.held++
		return
	}
	// Net occupancy change of this Process call: entries enqueued minus
	// entries the pressure threshold shed back out.
	if d := len(res.EnqueuedHops) - len(res.Shed); d != 0 {
		n.egress.Add(int64(d))
	}
	w.m, w.frame = m, nil
	for _, o := range w.outs {
		if o.sess.deliver(w, o.allowed) {
			w.owed = append(w.owed, o.sess)
		}
	}
	// Drop the unused link references and the decode reference; queue
	// entries keep theirs until their sender (or a drop path) releases.
	m.ReleaseN(links - int32(len(res.EnqueuedHops)) + 1)
	for _, wk := range w.wakes {
		select {
		case wk <- struct{}{}:
		default:
		}
	}
	w.held++
}

// pacer is one sender goroutine's pacing timer: created by the first
// wait that actually has to sleep, reused by every later one, so an
// unpaced sender never allocates it and a paced one allocates it once.
type pacer struct {
	timer *time.Timer
}

// wait sleeps one pacing delay — a transfer's sampled link time, already
// scaled to wall time — and reports false when the node stopped first.
// A delay that rounds to nothing costs a poll of the stop channel and no
// timer. Only the sender goroutine that owns the pacer may call it.
func (p *pacer) wait(d time.Duration, stopped <-chan struct{}) bool {
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

// senderLoop drains one link's queue in bursts: select entries by
// strategy at one scheduling instant until their accumulated transfer
// time reaches paceQuantum (or the Burst cap), sleep until the transfer
// is due to end, flush the burst with one write. Injected link outages
// park the loop until the link comes back up. Every burst goes through the link's
// sending half (runtime.LinkSend): chains resolved against the adversary
// as the entries are selected — one delivering attempt each on a clean
// link — every attempt paced and written (lost ones mangled,
// reliable.go), the whole burst leaving in one syscall. Each burst's
// measured rate goes to est under the estimator's own lock.
func (n *Node) senderLoop(to msg.NodeID, pc *peerConn, wake chan struct{}, ls *runtime.LinkSend, est *linkEstimate) {
	defer n.wg.Done()
	q := n.b.Queue(to)
	burst := n.burst
	entries := make([]*core.Entry, 0, burst+1)
	var (
		p  pacer
		ws wireScratch
		// due is when the link's transfers so far are owed to end. It
		// restarts from now after the link idled (zero) or fell more than
		// paceQuantum behind, so a stall never turns into a catch-up burst.
		due time.Time
	)

	// The burst being selected: its scheduling instant, and the link time
	// (emulated ms) and wire volume (KB) of the entries taken so far.
	// more is PopBurstWhile's cut — it charges each entry, in send order,
	// its whole resolved chain and lets the burst grow only while the
	// transfer time it adds up to is still below what a pacing sleep can
	// resolve, and below the Burst cap. A chain reordered behind its
	// successor always gets it, the one entry past the cap PopBurstWhile
	// is allowed (a successor is never reordered in turn). Entries past
	// the cut stay queued.
	var (
		now    vtime.Millis
		tx, kb float64
	)
	more := func(e *core.Entry) bool {
		var swap bool
		tx, kb, swap = ls.Resolve(e, now)
		return swap || (ls.Len() < burst && n.link.Wall(tx) < paceQuantum)
	}
	for {
		n.mu.RLock()
		down := n.linkDown[to]
		n.mu.RUnlock()
		if down {
			due = time.Time{}
			select {
			case <-wake:
				continue
			case <-n.stopped:
				return
			}
		}

		// One scheduling instant for the whole burst: PopBurstWhile
		// scores every queued entry once at this now and heap-selects
		// what the strategy would send, in send order — O(n + k log n)
		// where k sequential Picks would rescan the queue per message.
		strategy, params := n.b.Strategy(), n.b.Params()
		now = n.clock.Now()
		q.Lock()
		var drops []core.Drop
		entries, drops = q.PopBurstWhile(strategy, now, params, burst+1, entries[:0], more)
		n.charge.Drops(n.cfg.ID, drops, now)
		if k := len(entries) + len(drops); k > 0 {
			n.egress.Add(-int64(k))
		}
		if len(entries) > 0 {
			// Set inside the pop critical section, so a quiescence poll
			// cannot see the queue empty before the transfer is visible
			// as in-progress.
			n.busySenders.Add(1)
		}
		q.Unlock()
		if len(entries) == 0 {
			due = time.Time{}
			select {
			case <-wake:
				continue
			case <-n.stopped:
				return
			}
		}

		// The burst's transfer: Σ size·rate over the sampled rates, the
		// link time the simulator would keep the link busy for.
		start := time.Now()
		if start.Sub(due) > paceQuantum {
			due = start
		}
		due = due.Add(n.link.Wall(tx))
		if !p.wait(due.Sub(start), n.stopped) {
			// Stopped mid-transfer: the held burst dies with the node. A
			// healthy run quiesces before Stop, so this only fires on
			// crash/abort paths — charged like the queue drain in Crash.
			n.charge.Crashed(n.cfg.ID, entries, nil, 0, n.clock.Now())
			n.busySenders.Add(-1)
			return
		}

		chains := ls.Order()
		ls.Account(nodeCount{n})
		n.writeBurstReliable(pc, chains, &ws)
		for _, e := range entries {
			runtime.ReleaseEntry(e)
		}

		// The measured rate of this transfer. Under pacing a burst is one
		// transfer (or a handful too short to time apart), so the link
		// estimate sees the per-transfer spread, not a per-burst mean.
		if kb > 0 {
			est.observe(n.link.Emulated(time.Since(start)) / kb)
		}
		n.busySenders.Add(-1)
	}
}
