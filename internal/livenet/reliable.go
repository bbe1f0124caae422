package livenet

import (
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// This file is the live broker-to-broker link's I/O. The hop's contract —
// sequence numbers, the adversary's decisions, link-time draws, the
// reorder and base rules, stale-epoch rejection and dedup — lives in
// runtime/link.go, the same two halves the simulator drives: senderLoop
// resolves each burst through a runtime.LinkSend and readLoop runs each
// arriving FrameData through a runtime.LinkRecv. What is left here is
// the framing: unlike the simulator, every attempt actually travels — a
// lost transmission goes out with its frame-type byte mangled to
// FrameDataDrop (the frame-mangling shim: the receiver counts the
// arrival for the wire totals and discards it), a retransmission is a
// second copy in the same burst, and the delivering attempt goes out
// clean. A clean link (nil adversary) resolves every frame to one
// delivering attempt. Nothing flows back on a link: the sender learns of
// a dead neighbor from its failed write.

// nodeCount is the node's ledger as the shared halves charge it: its
// collector, then its tap (runtime.Sink).
type nodeCount struct{ n *Node }

// Count implements runtime.Counts.
func (c nodeCount) Count(id metrics.Counter, k int) { c.n.count(id, k) }

// DeliveredAt implements runtime.Sink.
func (c nodeCount) DeliveredAt(subID int32, price float64, published, latency vtime.Millis, valid bool) {
	c.n.ledger.DeliveredAt(subID, price, published, latency, valid)
	if c.n.cfg.Sink != nil {
		c.n.cfg.Sink.DeliveredAt(subID, price, published, latency, valid)
	}
}

// wireScratch is one sender's burst assembly buffer and, per chain, where
// its frames sit in it.
type wireScratch struct {
	buf   []byte
	metas []wireMeta
}

// wireMeta locates one chain's frames inside the assembled burst buffer,
// for frame-granular accounting after a partial write.
type wireMeta struct {
	off, flen, frames, drops int
	deliver                  bool
}

// writeBurstReliable assembles every chain's wire frames — drops mangled,
// the delivering copy and its duplicate clean — into one contiguous
// buffer, in wire order, and flushes it with a single write. On a
// partial write it counts the frames that fully left the node and charges
// each chain whose delivering frame died to the dead neighbor.
func (n *Node) writeBurstReliable(pc *peerConn, chains []runtime.Chain, ws *wireScratch) {
	ty := msg.DataFrameType(0)
	buf := ws.buf[:0]
	metas := ws.metas[:0]
	epoch := n.epoch.Load()
	for i := range chains {
		c := &chains[i]
		start := len(buf)
		frame, err := msg.AppendDataFrame(buf, c.Seq, c.Base, epoch, c.M)
		if err != nil {
			buf = frame // == buf[:start]; oversized re-encode cannot happen
			continue
		}
		flen := len(frame) - start
		total, drops := c.Frames(), c.Drops()
		for k := 1; k < total; k++ {
			frame = append(frame, frame[start:start+flen]...)
		}
		for d := 0; d < drops; d++ {
			frame[start+d*flen+ty] = msg.FrameDataDrop
		}
		buf = frame
		metas = append(metas, wireMeta{off: start, flen: flen, frames: total, drops: drops, deliver: c.Out.Deliver})
	}
	ws.buf, ws.metas = buf, metas
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
