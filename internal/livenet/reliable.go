package livenet

import (
	"net"
	"sync"
	"sync/atomic"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// This file is the live half of the reliable per-link channel that heals
// the LinkLoss adversary (internal/runtime/loss.go). The adversary's
// decisions are resolved at the sender, synchronously, against the same
// (seed, link, seq, attempt) hash the simulator keys — but unlike the
// simulator, every attempt actually travels: a lost transmission goes out
// with its frame-type byte mangled to FrameDataDrop (the frame-mangling
// shim — the receiver counts the arrival for the wire totals and discards
// it), a retransmission is a real re-write of the buffered frame, and the
// delivering attempt goes out as FrameData carrying the link sequence
// numbers the receiving end's dedup/reorder state consumes. Cumulative
// acks flow back on the same connection and trim the bounded retransmit
// buffer.

// linkSender is one outgoing link's reliable-channel sender state: the
// adversary and retry policy the plan resolved for this arc, the link
// sequence counter (owned by the sender goroutine), the bounded
// retransmit buffer (shared with the link's ack loop), and reusable
// encode scratch.
type linkSender struct {
	lm *runtime.LossModel
	rp runtime.RetryPolicy
	// seq is the link sequence counter. Incremented only by the sender
	// goroutine; atomic so durable checkpoints can snapshot it as the
	// link's send watermark without stopping the sender.
	seq  atomic.Uint64
	retx *retxBuf

	// Burst scratch (owned by the sender goroutine).
	chains []burstChain
	order  []int
	metas  []wireMeta
	burst  []byte
}

func newLinkSender(lm *runtime.LossModel, rp runtime.RetryPolicy, window int) *linkSender {
	return &linkSender{lm: lm, rp: rp, retx: newRetxBuf(window)}
}

// next allocates the next link sequence number (first frame is 1, the
// receiver cursor's initial expectation).
func (ls *linkSender) next() uint64 {
	return ls.seq.Add(1)
}

// retxBuf is the bounded per-link retransmit buffer: encoded FrameData
// frames by sequence, trimmed by the peer's cumulative acks, oldest
// evicted when the window fills. With head-of-line retries a frame is
// only retransmitted while it is the newest entry, so eviction can only
// ever touch frames already delivered and merely awaiting their ack.
type retxBuf struct {
	mu     sync.Mutex
	frames map[uint64][]byte
	limit  int
}

func newRetxBuf(limit int) *retxBuf {
	if limit <= 0 {
		limit = 64
	}
	return &retxBuf{frames: make(map[uint64][]byte, limit), limit: limit}
}

// add stores one encoded frame (copied: callers reuse their encode
// scratch), evicting the lowest sequence when the buffer is full.
func (b *retxBuf) add(seq uint64, frame []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.frames) >= b.limit {
		low := seq
		for s := range b.frames {
			if s < low {
				low = s
			}
		}
		delete(b.frames, low)
	}
	b.frames[seq] = append(b.frames[seq][:0], frame...)
}

// ack trims every frame at or below the cumulative sequence.
func (b *retxBuf) ack(cum uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for s := range b.frames {
		if s <= cum {
			delete(b.frames, s)
		}
	}
}

// len reports the buffered frame count.
func (b *retxBuf) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.frames)
}

// ackLoop reads the dialing side of one reliable broker link: the only
// frames the peer sends back on it are cumulative acks, which trim the
// retransmit buffer. It exits when the connection closes — Stop closes
// every peer connection, so pending per-link state dies with the node.
func (n *Node) ackLoop(conn net.Conn, rb *retxBuf) {
	defer n.wg.Done()
	fr := msg.NewFrameReader(conn)
	fb := msg.GetFrameBuf()
	defer fb.Release()
	for {
		ft, body, err := fr.Next(fb)
		if err != nil {
			return
		}
		if ft != msg.FrameAck {
			continue
		}
		if cum, aerr := msg.DecodeAck(body); aerr == nil {
			rb.ack(cum)
		}
	}
}

// accountChain charges one resolved send chain to the node counters and
// the metrics sink — the sender-side half of the loss accounting both
// backends must agree on exactly.
func (n *Node) accountChain(out *runtime.SendOutcome) {
	if out.Losses > 0 {
		n.count(metrics.FramesLost, out.Losses)
	}
	if out.Retransmits > 0 {
		n.count(metrics.Retransmits, out.Retransmits)
	}
	if !out.Deliver {
		n.count(metrics.DroppedDeadline, 1)
	}
}

// chainTime charges one chain's link time: one rate sample per attempt,
// then one for the duplicated copy — the simulator's draw order, on the
// same per-link stream, so both backends consume identical sequences.
func chainTime(out *runtime.SendOutcome, sizeKB float64, pacer *Pacer) float64 {
	var tx float64
	for i := 0; i < out.Attempts; i++ {
		tx += sizeKB * pacer.Sampler.Sample(pacer.Stream)
	}
	if out.Dup {
		tx += sizeKB * pacer.Sampler.Sample(pacer.Stream)
	}
	return tx
}

// wireFrames is how many frames a chain puts on the wire: every lost
// attempt travels as a mangled drop, the delivering attempt as data, and
// a duplicated delivery twice.
func wireFrames(out *runtime.SendOutcome) int {
	k := out.Attempts
	if out.Dup {
		k++
	}
	return k
}

// burstChain is one burst entry's resolved chain.
// swap marks a delivered chain the adversary reorders behind its
// successor (never set on a chain that is itself such a successor).
type burstChain struct {
	m    *msg.Message
	seq  uint64
	base uint64
	out  runtime.SendOutcome
	swap bool
}

// wireMeta locates one chain's frames inside the assembled burst buffer,
// for frame-granular accounting after a partial write.
type wireMeta struct {
	off, flen, frames, drops int
	deliver                  bool
}

// resolve takes one entry into the burst being selected (ls.chains, which
// the sender resets per burst): it assigns the next link sequence number
// and resolves the entry's send chain at the burst's scheduling instant,
// charging one rate sample per attempt (and per duplicated copy), in send
// order. It returns the chain's link time and wire volume in KB, and
// whether the adversary reorders the chain behind its successor — the
// simulator's pair granularity: the burst then owes the link one more
// entry for it to swap with, whatever the transfer time already spent,
// and that successor is not reordered in turn.
func (ls *linkSender) resolve(e *core.Entry, pacer *Pacer, now vtime.Millis) (tx, kb float64, swap bool) {
	seq := ls.next()
	out := runtime.ResolveSend(ls.lm, ls.rp, seq, e.SizeKB, e.Targets, now)
	successor := len(ls.chains) > 0 && ls.chains[len(ls.chains)-1].swap
	swap = !successor && out.Deliver && ls.lm.Swap(seq, now)
	ls.chains = append(ls.chains, burstChain{m: e.Data.(*msg.Message), seq: seq, out: out, swap: swap})
	return chainTime(&out, e.SizeKB, pacer), e.SizeKB * float64(wireFrames(&out)), swap
}

// orderBurst computes the burst's wire delivery order — a chain marked
// swap travels behind its immediate successor when the burst has one —
// and stamps each chain's base: the suffix-minimum of still-live
// sequences over that order, so the receiver never waits for an
// abandoned frame.
func orderBurst(ls *linkSender) {
	ls.order = ls.order[:0]
	for i := 0; i < len(ls.chains); {
		if ls.chains[i].swap && i+1 < len(ls.chains) {
			ls.order = append(ls.order, i+1, i)
			i += 2
		} else {
			ls.order = append(ls.order, i)
			i++
		}
	}
	low := ^uint64(0)
	for k := len(ls.order) - 1; k >= 0; k-- {
		c := &ls.chains[ls.order[k]]
		if c.out.Deliver && c.seq < low {
			low = c.seq
		}
		c.base = low
		if c.base > c.seq {
			c.base = c.seq // all-abandoned suffix: keep the header valid
		}
	}
}

// writeBurstReliable assembles every chain's wire frames — drops mangled,
// the delivering copy and its duplicate clean — into one contiguous
// buffer, in delivery order, and flushes it with a single syscall. On a
// partial write it counts the frames that fully left the node and charges
// each chain whose delivering frame died to the dead neighbor.
func (n *Node) writeBurstReliable(pc *peerConn, ls *linkSender) {
	ty := msg.DataFrameType(0)
	buf := ls.burst[:0]
	metas := ls.metas[:0]
	epoch := n.epoch.Load()
	for _, idx := range ls.order {
		c := &ls.chains[idx]
		start := len(buf)
		frame, err := msg.AppendDataFrame(buf, c.seq, c.base, epoch, c.m)
		if err != nil {
			buf = frame // == buf[:start]; oversized re-encode cannot happen
			continue
		}
		flen := len(frame) - start
		ls.retx.add(c.seq, frame[start:]) // buffer the clean copy
		drops := c.out.Attempts - 1
		if !c.out.Deliver {
			drops = c.out.Attempts
		}
		total := wireFrames(&c.out)
		for k := 1; k < total; k++ {
			frame = append(frame, frame[start:start+flen]...)
		}
		for d := 0; d < drops; d++ {
			frame[start+d*flen+ty] = msg.FrameDataDrop
		}
		buf = frame
		metas = append(metas, wireMeta{off: start, flen: flen, frames: total, drops: drops, deliver: c.out.Deliver})
	}
	ls.burst, ls.metas = buf, metas
	if len(buf) == 0 {
		return
	}
	wv := net.Buffers{buf}
	written, err := pc.writeBuffers(&wv)
	if err == nil {
		total := 0
		for _, mt := range metas {
			total += mt.frames
		}
		n.sentPeers.Add(int64(total))
		return
	}
	var sent int64
	lost := 0
	for _, mt := range metas {
		gotBytes := written - int64(mt.off)
		if gotBytes < 0 {
			gotBytes = 0
		}
		got := int(gotBytes) / mt.flen
		if got > mt.frames {
			got = mt.frames
		}
		sent += int64(got)
		if mt.deliver && got <= mt.drops {
			lost++
		}
	}
	n.sentPeers.Add(sent)
	if lost > 0 {
		n.count(metrics.DropsCrashed, lost)
	}
}

// recvLink is the receiving end of one reliable inbound link: the shared
// dedup/reorder state both backends run, plus the cumulative-ack cadence
// back toward the sender.
type recvLink struct {
	rs      *runtime.RecvState
	peer    *peerConn
	every   int
	since   int
	ackBuf  []byte
	deliver []*msg.Message
}

func (n *Node) newRecvLink(peer *peerConn) *recvLink {
	every := n.cfg.AckEvery
	if every <= 0 {
		every = 16
	}
	return &recvLink{rs: runtime.NewRecvState(n.cfg.RetxWindow), peer: peer, every: every}
}

// accept runs one arriving data frame through the link state and returns
// the messages now deliverable in order. A suppressed duplicate is
// released here (and its inflight hold dropped); a buffered out-of-order
// frame keeps its hold until it drains. Every AckEvery frames a
// cumulative ack flows back so the sender can trim its retransmit buffer.
func (rl *recvLink) accept(n *Node, seq, base uint64, m *msg.Message) []*msg.Message {
	out, dup, healed := rl.rs.Accept(seq, base, m, rl.deliver[:0])
	rl.deliver = out
	if dup {
		n.count(metrics.DupsSuppressed, 1)
		m.Release()
		n.inflight.Add(-1)
	}
	if healed > 0 {
		n.count(metrics.ReorderedHealed, healed)
	}
	rl.since++
	if rl.since >= rl.every {
		rl.since = 0
		rl.ackBuf = msg.AppendAck(rl.ackBuf[:0], rl.rs.CumAck())
		_ = rl.peer.writeFrame(msg.FrameAck, rl.ackBuf) // dead dialers are fine
	}
	return rl.deliver
}
