package runtime

import (
	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/trace"
	"bdps/internal/vtime"
)

// This file is the one place a broker's outcomes reach the ledger, as
// link.go is for a hop's: what a Process result delivered, suppressed,
// dropped on arrival or shed, which entries a queue pruned, and what a
// session resume replayed. Both backends charge through it and keep only
// their own bookkeeping: the live node's egress occupancy, each
// backend's session ring. Every entry an outcome kills is released here.

// Charge charges broker outcomes to one ledger: the simulator's plan
// collector, or a live node's collector and tap. Build one per
// deployment or node.
type Charge struct {
	led    Sink
	tracer trace.Tracer
}

// NewCharge builds a Charge on led. tr, when non-nil, receives the
// Deliver events and the expired, hopeless and shed Drop events.
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
