package livenet

import (
	"sync/atomic"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// This file is the live broker-to-broker link, the same link the
// simulator runs (simnet's link): every relayed message is a FrameData
// carrying the link sequence number, the sender's lowest still-live
// sequence (base) and its incarnation epoch, and runs through the shared
// dedup/reorder state (runtime.RecvState) at the receiving end. A link
// facing a LinkLoss adversary (internal/runtime/loss.go) differs only in
// what runtime.ResolveSend answers: the adversary's decisions are resolved
// at the sender, synchronously, against the same (seed, link, seq, attempt)
// hash the simulator keys — but unlike the simulator, every attempt
// actually travels: a lost transmission goes out with its frame-type byte
// mangled to FrameDataDrop (the frame-mangling shim — the receiver counts
// the arrival for the wire totals and discards it), a retransmission is a
// second copy in the same burst, and the delivering attempt goes out
// clean. A clean link (nil adversary) resolves every frame to one
// delivering attempt. Nothing flows back on a link: the sender learns of a
// dead neighbor from its failed write.

// linkSender is one outgoing link's sender state: the adversary (nil on a
// clean link) and retry policy the plan resolved for this arc, the link
// sequence counter (owned by the sender goroutine), and reusable encode
// scratch.
type linkSender struct {
	lm *runtime.LossModel
	rp runtime.RetryPolicy
	// seq is the link sequence counter. Incremented only by the sender
	// goroutine; atomic so durable checkpoints can snapshot it as the
	// link's send watermark without stopping the sender.
	seq atomic.Uint64

	// Burst scratch (owned by the sender goroutine).
	chains []burstChain
	order  []int
	metas  []wireMeta
	burst  []byte
}

// next allocates the next link sequence number (first frame is 1, the
// receiver cursor's initial expectation).
func (ls *linkSender) next() uint64 {
	return ls.seq.Add(1)
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
// buffer, in delivery order, and flushes it with a single write. On a
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
	written, err := pc.writeBuf(buf)
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
		got := min(max(written-mt.off, 0)/mt.flen, mt.frames)
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

// recvLink is the receiving end of one inbound broker link: the shared
// dedup/reorder state both backends run, plus the delivery scratch.
type recvLink struct {
	rs      *runtime.RecvState
	deliver []*msg.Message
}

// accept runs one arriving data frame through the link state and returns
// the messages now deliverable in order. A suppressed duplicate is
// released here (and its inflight hold dropped); a buffered out-of-order
// frame keeps its hold until it drains.
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
	return rl.deliver
}
