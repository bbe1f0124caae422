package runtime

import (
	"sync/atomic"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/trace"
	"bdps/internal/vtime"
)

// This file is the one place a broker-to-broker hop's contract lives.
// Both backends drive the same two halves of a link and keep only their
// I/O: the simulator turns a resolved burst into one engine event whose
// completion hands the surviving frames to the receiving half, the live
// node paces it and writes it to a socket. The contract, end to end:
//
//   - Every entry taken onto a link gets the next link sequence number
//     and its send chain against the adversary (ResolveSend).
//   - Link time is drawn from the link's own stream: one rate sample per
//     attempt, then one for a duplicated copy, in send order.
//   - A delivered chain the adversary reorders travels behind its
//     successor in the same burst; a successor is never reordered in
//     turn, so a burst owes at most one entry past wherever it is cut.
//   - Each frame carries base, the lowest sequence still live when it hits
//     the wire (the suffix minimum over the burst's wire order), so the
//     receiver never waits for an abandoned frame.
//   - The receiver drops frames of a dead sender incarnation, then
//     restores exactly-once FIFO delivery.
//
// Each backend keeps its own counting instant: the simulator accounts a
// burst when it starts, the live sender after its pacing wait.

// Counts is the ledger a link half charges: *metrics.Collector satisfies
// it, and so does the live node's (its collector, then its tap).
type Counts interface {
	Count(id metrics.Counter, n int)
}

// LinkSpec is what one directed link's sender runs with: the rate
// sampler and the stream feeding it, the loss adversary it faces (nil: a
// clean link) and its retransmission policy.
type LinkSpec struct {
	Sampler Sampler
	Stream  *stats.Stream
	Loss    *LossModel
	Retry   RetryPolicy
}

// LinkSpec derives one plan link's spec. Both backends build their links
// from it, so a live run draws the simulator's rate sequence and faces
// its adversary under the same seed.
func (p *Plan) LinkSpec(l Link) LinkSpec {
	return LinkSpec{
		Sampler: NewSampler(p.Cfg.LinkModel, l.Truth, p.Cfg.MinRate),
		Stream:  stats.DeriveN(p.Cfg.Seed, "simnet/link", l.Index),
		Loss:    p.lossModel(l),
		Retry:   NewRetryPolicy(p.Cfg.Reliability, p.Beliefs(l.From, l.To), p.Cfg.Params.PD),
	}
}

// Chain is one burst entry's resolved send chain.
type Chain struct {
	M   *msg.Message
	Seq uint64
	// Base is the lowest sequence still live when the chain's frames hit
	// the wire; Order stamps it.
	Base uint64
	Out  SendOutcome
	// swap marks a delivered chain the adversary reorders behind its
	// successor.
	swap bool
}

// Frames is how many frames the chain puts on the wire: every attempt,
// plus the duplicated copy.
func (c *Chain) Frames() int {
	if c.Out.Dup {
		return c.Out.Attempts + 1
	}
	return c.Out.Attempts
}

// Drops is how many of the chain's frames are lost attempts: all of
// them when the chain was abandoned, else all but the delivering one.
func (c *Chain) Drops() int {
	if c.Out.Deliver {
		return c.Out.Attempts - 1
	}
	return c.Out.Attempts
}

// LinkSend is the sending half of one directed link. Only the link's
// sender may call its methods; Mark may be called from anywhere.
type LinkSend struct {
	// seq is the link sequence counter; atomic so durable checkpoints can
	// snapshot it as the send watermark without stopping the sender.
	seq      atomic.Uint64
	spec     LinkSpec
	tracer   trace.Tracer
	from, to msg.NodeID

	// The burst being resolved: its chains, the link time (ms) and wire
	// volume (KB) they add up to, and whether Order has closed it.
	chains  []Chain
	tx, kb  float64
	ordered bool
}

// NewLinkSend builds the sending half of the link from → to. tr, when
// non-nil, receives the link's Send and deadline-retx drop events. A
// LinkSend must not be copied once used.
func NewLinkSend(from, to msg.NodeID, spec LinkSpec, tr trace.Tracer) LinkSend {
	return LinkSend{spec: spec, tracer: tr, from: from, to: to}
}

// Mark returns the send watermark: the last sequence number assigned.
func (ls *LinkSend) Mark() uint64 { return ls.seq.Load() }

// Resume continues the link from a recovered watermark.
func (ls *LinkSend) Resume(mark uint64) { ls.seq.Store(mark) }

// Len is how many entries the burst being resolved holds.
func (ls *LinkSend) Len() int { return len(ls.chains) }

// Resolve takes one entry into the burst at the burst's scheduling
// instant (the first Resolve after an Order opens a new burst). It
// assigns the next sequence number, resolves the send chain and draws
// its link time, and reports the burst's link time and wire volume so
// far, and whether the chain is reordered behind its successor — in
// which case the burst owes the link that successor, wherever it would
// otherwise be cut. The entry may be released once Resolve returns.
func (ls *LinkSend) Resolve(e *core.Entry, now vtime.Millis) (tx, kb float64, swap bool) {
	if ls.ordered {
		ls.chains, ls.tx, ls.kb, ls.ordered = ls.chains[:0], 0, 0, false
	}
	m := e.Data.(*msg.Message)
	seq := ls.seq.Add(1)
	if ls.tracer != nil {
		ls.tracer.Emit(trace.Event{T: now, Kind: trace.Send,
			MsgID: uint64(m.ID), Broker: int32(ls.from), Peer: int32(ls.to)})
	}
	out := ResolveSend(ls.spec.Loss, ls.spec.Retry, seq, e.SizeKB, e.Targets, now)
	for i := 0; i < out.Attempts; i++ {
		ls.tx += e.SizeKB * ls.spec.Sampler.Sample(ls.spec.Stream)
	}
	if out.Dup {
		ls.tx += e.SizeKB * ls.spec.Sampler.Sample(ls.spec.Stream)
	}
	successor := len(ls.chains) > 0 && ls.chains[len(ls.chains)-1].swap
	swap = !successor && out.Deliver && ls.spec.Loss.Swap(seq, now)
	ls.chains = append(ls.chains, Chain{M: m, Seq: seq, Out: out, swap: swap})
	ls.kb += e.SizeKB * float64(ls.chains[len(ls.chains)-1].Frames())
	if !out.Deliver && ls.tracer != nil {
		ls.tracer.Emit(trace.Event{T: now, Kind: trace.Drop,
			MsgID: uint64(m.ID), Broker: int32(ls.from), Note: "deadline-retx"})
	}
	return ls.tx, ls.kb, swap
}

// Order closes the burst and returns its chains in wire order — each
// reordered chain behind its successor, when the burst has one — with
// every chain's base stamped. The slice is the link's scratch, valid
// until the next Resolve.
func (ls *LinkSend) Order() []Chain {
	c := ls.chains
	for i := 0; i+1 < len(c); i++ {
		if c[i].swap {
			c[i], c[i+1] = c[i+1], c[i]
			i++
		}
	}
	low := ^uint64(0)
	for i := len(c) - 1; i >= 0; i-- {
		if c[i].Out.Deliver && c[i].Seq < low {
			low = c[i].Seq
		}
		c[i].Base = min(low, c[i].Seq) // an abandoned suffix keeps the header valid
	}
	ls.ordered = true
	return c
}

// Account charges the burst's lost transmissions, admitted
// retransmissions and abandoned chains.
func (ls *LinkSend) Account(cnt Counts) {
	lost, retx, abandoned := 0, 0, 0
	for i := range ls.chains {
		out := &ls.chains[i].Out
		lost += out.Losses
		retx += out.Retransmits
		if !out.Deliver {
			abandoned++
		}
	}
	if lost > 0 {
		cnt.Count(metrics.FramesLost, lost)
	}
	if retx > 0 {
		cnt.Count(metrics.Retransmits, retx)
	}
	if abandoned > 0 {
		cnt.Count(metrics.DroppedDeadline, abandoned)
	}
}

// LinkRecv is the receiving half of one directed link. It restores
// exactly-once FIFO delivery with a cumulative expected-sequence cursor
// plus a bounded buffer of ahead-of-order frames: everything below the
// cursor is a duplicate, so dedup is O(1) and needs no per-ID set to
// expire. The sender's epoch floor is the caller's to keep: the live
// node tracks it per neighbor, across connections.
type LinkRecv struct {
	expected uint64 // next in-order sequence (first frame is 1)
	buf      map[uint64]*msg.Message
	window   int
	cnt      Counts
}

// NewLinkRecv builds a receiving half with the given reorder window (64
// when ≤ 0), charging its counters to cnt.
func NewLinkRecv(window int, cnt Counts) LinkRecv {
	if window <= 0 {
		window = 64
	}
	return LinkRecv{expected: 1, window: window, cnt: cnt}
}

// Pending is the number of frames parked out of order.
func (lr *LinkRecv) Pending() int { return len(lr.buf) }

// Stale reports — and counts — a frame sent by an incarnation older than
// floor, the newest its sender has announced: it must be discarded.
func (lr *LinkRecv) Stale(epoch, floor uint32) bool {
	if epoch < floor {
		lr.cnt.Count(metrics.StaleEpochFrames, 1)
		return true
	}
	return false
}

// Accept runs one arriving data frame through dedup and FIFO
// restoration. base is the sender's lowest still-live sequence: frames
// below it were delivered or abandoned and must not be waited for. The
// messages now deliverable in order are appended to out; dup reports a
// suppressed duplicate, which stays the caller's to release. Duplicates
// and messages released from the reorder buffer are counted.
func (lr *LinkRecv) Accept(seq, base uint64, m *msg.Message, out []*msg.Message) (_ []*msg.Message, dup bool) {
	start, took := len(out), false
	if base > lr.expected {
		// What is parked below base arrived and was never handed up (its
		// predecessor died with a stale incarnation): release it, then
		// stop waiting for anything below base.
		for len(lr.buf) > 0 {
			low := base
			for s := range lr.buf {
				low = min(low, s)
			}
			if low == base {
				break
			}
			out = append(out, lr.buf[low])
			delete(lr.buf, low)
		}
		lr.expected = base
		out = lr.drain(out)
	}
	switch {
	case seq < lr.expected:
		dup = true
	case seq == lr.expected:
		out = append(out, m)
		took = true
		lr.expected++
		out = lr.drain(out)
	default:
		if lr.buf == nil {
			lr.buf = make(map[uint64]*msg.Message)
		}
		if _, ok := lr.buf[seq]; ok {
			dup = true
			break
		}
		lr.buf[seq] = m
		if len(lr.buf) >= lr.window {
			// Pathological gap (a peer restarted mid-stream): give up on
			// strict FIFO and advance to the lowest buffered frame rather
			// than wedge the link.
			low := seq
			for s := range lr.buf {
				low = min(low, s)
			}
			lr.expected = low
			out = lr.drain(out)
		}
	}
	if dup {
		lr.cnt.Count(metrics.DupsSuppressed, 1)
	}
	healed := len(out) - start
	if took {
		healed--
	}
	if healed > 0 {
		lr.cnt.Count(metrics.ReorderedHealed, healed)
	}
	return out, dup
}

// drain releases consecutively buffered frames from the cursor onward.
func (lr *LinkRecv) drain(out []*msg.Message) []*msg.Message {
	for {
		m, ok := lr.buf[lr.expected]
		if !ok {
			return out
		}
		delete(lr.buf, lr.expected)
		lr.expected++
		out = append(out, m)
	}
}
