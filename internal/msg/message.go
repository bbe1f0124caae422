// Package msg defines the message model of the bounded-delay pub/sub
// system: typed attribute sets (the content the filters match on),
// published-message metadata including the publisher-specified delay bound,
// and a compact binary wire codec used by the live TCP runtime.
package msg

import (
	"fmt"

	"bdps/internal/filter"
	"bdps/internal/vtime"
)

// ID is a system-wide unique message identifier. Publishers allocate IDs
// from disjoint ranges (publisher index in the high bits), so IDs are
// unique without coordination.
type ID uint64

// NodeID identifies a participant in the overlay: brokers, publishers and
// subscribers each draw from their own space. It is defined here, in the
// leaf package, so that the topology, routing, broker and runtime layers
// can share it without import cycles.
type NodeID int32

// None is the absent NodeID (for example "no next hop: deliver locally").
const None NodeID = -1

// SubID identifies a subscription.
type SubID int32

// Scenario selects who specifies the delay bound (§4.1 of the paper).
type Scenario uint8

// The delay-requirement scenarios.
const (
	// PSD: publishers specify the allowed delay; the system maximizes the
	// delivery rate (eq. 1).
	PSD Scenario = iota
	// SSD: subscribers specify the allowed delay and a price per valid
	// message; the system maximizes the total earning (eq. 2).
	SSD
	// Both: publishers and subscribers each specify a bound and the
	// stricter one applies, with the subscriber's price — the extension
	// §4.1 sketches ("our work can easily be extended to the case where
	// both publishers and subscribers specify their delay requirements").
	Both
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case PSD:
		return "PSD"
	case SSD:
		return "SSD"
	case Both:
		return "PSD+SSD"
	}
	return fmt.Sprintf("Scenario(%d)", uint8(s))
}

// AllowedDelay returns the delay bound that applies to delivering message
// m to subscription sub under the scenario, and the price earned by a
// valid delivery (1 in PSD, per §5).
func (s Scenario) AllowedDelay(m *Message, sub *Subscription) (allowed vtime.Millis, price float64) {
	switch s {
	case PSD:
		return m.Allowed, 1
	case SSD:
		return sub.Deadline, sub.Price
	default:
		price = sub.Price
		if price <= 0 {
			price = 1
		}
		switch {
		case m.Allowed <= 0:
			return sub.Deadline, price
		case sub.Deadline <= 0:
			return m.Allowed, price
		case m.Allowed < sub.Deadline:
			return m.Allowed, price
		default:
			return sub.Deadline, price
		}
	}
}

// MakeID composes a message ID from a publisher index and a sequence
// number.
func MakeID(publisher NodeID, seq uint32) ID {
	return ID(uint64(uint32(publisher))<<32 | uint64(seq))
}

// Message is one published message in flight through the overlay.
//
// Allowed is the publisher-specified delay bound (PSD scenario); it is 0
// when the publisher did not specify one (SSD scenario, where bounds come
// from subscriptions). Delays and timestamps are virtual milliseconds.
type Message struct {
	ID        ID
	Publisher NodeID       // identity of the publishing client
	Ingress   NodeID       // broker at which the message entered the overlay
	Published vtime.Millis // publication timestamp
	Allowed   vtime.Millis // publisher-specified allowed delay; 0 = unspecified
	SizeKB    float64      // message size in kilobytes (propagation = SizeKB · TR)
	Attrs     AttrSet      // content attributes, matched by filters
	Payload   []byte       // opaque body; nil in the simulator

	// Pool state of the live data plane (frame.go). Zero for ordinary
	// messages, for which Retain/Release are no-ops.
	pooled bool
	refs   int32     // managed atomically while pooled
	frame  *FrameBuf // frame buffer the payload aliases, if any
}

// Deadline returns the absolute publisher deadline, or +Inf when the
// publisher did not specify a bound.
func (m *Message) Deadline() vtime.Millis {
	if m.Allowed <= 0 {
		return vtime.Inf
	}
	return m.Published + m.Allowed
}

// String implements fmt.Stringer.
func (m *Message) String() string {
	return fmt.Sprintf("msg %d from P%d via B%d (%.0fKB, t=%.0fms)",
		m.ID, m.Publisher, m.Ingress, m.SizeKB, m.Published)
}

// Subscription is one subscriber's standing interest, as issued to its
// edge broker. In the SSD scenario Deadline and Price are set by the
// subscriber; in the PSD scenario they are zero and the message's own
// bound applies with unit price (§5 of the paper: "set the price ... to 1,
// and change the delay requirement to be specified by publishers").
type Subscription struct {
	ID       SubID
	Edge     NodeID // broker the subscriber attaches to
	Filter   *filter.Filter
	Deadline vtime.Millis // subscriber-specified allowed delay; 0 = unspecified
	Price    float64      // earning per valid message; 0 = unspecified
}

// String implements fmt.Stringer.
func (s *Subscription) String() string {
	return fmt.Sprintf("sub %d @B%d [%s] dl=%.0fms pr=%.1f",
		s.ID, s.Edge, s.Filter.String(), s.Deadline, s.Price)
}
