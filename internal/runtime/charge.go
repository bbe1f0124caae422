package runtime

import (
	"slices"

	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/trace"
	"bdps/internal/vtime"
)

// This file is the one place a broker's outcomes reach the ledger, as
// link.go is for a hop's: what a Process result delivered, suppressed,
// dropped on arrival or shed, which entries a queue pruned, what a
// session resume replayed, and what a crash took. Both backends charge
// through it and keep only their own bookkeeping: the live node's egress
// occupancy, each backend's session ring. Every entry an outcome kills
// is released here.

// Charge charges broker outcomes to one ledger: the simulator's plan
// collector, or a live node's collector and tap. Build one per
// deployment or node.
type Charge struct {
	led    Sink
	tracer trace.Tracer
}

// NewCharge builds a Charge on led. tr, when non-nil, receives the
// Deliver events and the expired, hopeless, shed and crashed Drop events.
func NewCharge(led Sink, tr trace.Tracer) Charge { return Charge{led: led, tracer: tr} }

// Result charges what broker at's Process did with m at instant now:
// each delivery, a suppressed duplicate, the arrival drops, and the
// shed entries, which it releases.
func (c *Charge) Result(at msg.NodeID, m *msg.Message, res *broker.Result, now vtime.Millis) {
	if res.Duplicate {
		c.led.Count(metrics.Duplicates, 1)
	}
	for i := range res.Deliveries {
		d := &res.Deliveries[i]
		c.led.DeliveredAt(int32(d.SubID), d.Price, d.Published, d.Latency, d.Valid)
		if c.tracer != nil {
			c.tracer.Emit(trace.Event{T: now, Kind: trace.Deliver,
				MsgID: uint64(m.ID), Broker: int32(at), Peer: int32(d.SubID)})
		}
	}
	if res.ArrivalDrops > 0 {
		c.led.Count(metrics.DropsArrival, res.ArrivalDrops)
	}
	if len(res.Shed) > 0 {
		c.led.Count(metrics.DropsShed, len(res.Shed))
		for _, e := range res.Shed {
			c.drop(at, e, now, "shed")
		}
	}
}

// Drops charges the entries a queue of broker at pruned at now, each to
// DropsExpired or DropsHopeless by its reason, and releases them.
func (c *Charge) Drops(at msg.NodeID, drops []core.Drop, now vtime.Millis) {
	for _, d := range drops {
		id, note := metrics.DropsExpired, "expired"
		if d.Reason == core.DropHopeless {
			id, note = metrics.DropsHopeless, "hopeless"
		}
		c.drop(at, d.Entry, now, note)
		c.led.Count(id, 1)
	}
}

// Crashed charges the message copies that die with broker at, crashed,
// at now: one DropsCrashed each. They are the entries es, queued or in
// transfer, which it releases; the message m (when non-nil) arriving at
// the dead broker; and n copies nothing here holds: the frames a failed
// write took and the publications a dead ingress refused or lost. The
// tracer sees a "crashed" Drop for each entry and for m.
func (c *Charge) Crashed(at msg.NodeID, es []*core.Entry, m *msg.Message, n int, now vtime.Millis) {
	lost := len(es) + n
	if m != nil {
		lost++
	}
	if lost > 0 {
		c.led.Count(metrics.DropsCrashed, lost)
	}
	for _, e := range es {
		c.drop(at, e, now, "crashed")
	}
	if m != nil && c.tracer != nil {
		c.tracer.Emit(trace.Event{T: now, Kind: trace.Drop,
			MsgID: uint64(m.ID), Broker: int32(at), Note: "crashed"})
	}
}

// CrashQueues charges everything queued at broker b, crashed at now, to
// the crash (Crashed) and empties its output queues, each under its own
// lock, in neighbor order. It returns how many entries it charged.
func (c *Charge) CrashQueues(b *broker.Broker, now vtime.Millis) int {
	var next []msg.NodeID
	b.EachQueue(func(to msg.NodeID, _ *core.Queue) { next = append(next, to) })
	slices.Sort(next)
	var es []*core.Entry
	for _, to := range next {
		q := b.Queue(to)
		q.Lock()
		for q.Len() > 0 {
			es = append(es, q.RemoveAt(q.Len()-1))
		}
		q.Unlock()
	}
	c.Crashed(b.ID(), es, nil, 0, now)
	return len(es)
}

func (c *Charge) drop(at msg.NodeID, e *core.Entry, now vtime.Millis, note string) {
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{T: now, Kind: trace.Drop,
			MsgID: e.MsgID, Broker: int32(at), Note: note})
	}
	ReleaseEntry(e)
}

// Resume charges one session resume: the retained deliveries it
// replayed, and those ReplayExpired refused, as DroppedDeadline.
func (c *Charge) Resume(replayed, expired int) {
	c.led.Count(metrics.SessionsResumed, 1)
	c.led.Count(metrics.DroppedDeadline, expired)
	c.led.Count(metrics.ReplayedMsgs, replayed)
}

// ReplayExpired is the resume gate: a delivery retained for a suspended
// session may no longer be replayed at now once its bound has passed.
// The rest of its path is the subscriber's own connection, zero modeled
// delay, so the admission test degenerates to "slack ≥ 0".
func ReplayExpired(published, allowed, now vtime.Millis) bool {
	return allowed <= 0 || now-published > allowed
}

// ReleaseEntry returns a consumed queue entry, and the reference it holds
// on its message (a no-op unless the message is pooled), to their pools.
func ReleaseEntry(e *core.Entry) {
	if m, ok := e.Data.(*msg.Message); ok {
		m.Release()
	}
	e.Release()
}
