// Package trace provides structured event tracing for the simulator: a
// per-message timeline of publish, arrival, enqueue, send, delivery and
// drop events, streamed as JSON lines or kept in memory, for debugging
// scheduling decisions and for decomposing a message's end-to-end delay
// offline (queueing vs transmission vs processing).
package trace

import (
	"encoding/json"
	"io"

	"bdps/internal/vtime"
)

// Kind labels a traced event.
type Kind string

// Event kinds, in rough lifecycle order.
const (
	Publish Kind = "publish" // message entered the system
	Arrive  Kind = "arrive"  // reception at a broker
	Enqueue Kind = "enqueue" // placed in an output queue
	Send    Kind = "send"    // transmission started on a link
	Deliver Kind = "deliver" // handed to a local subscriber
	Drop    Kind = "drop"    // removed (expired / hopeless / crashed)
)

// Event is one traced occurrence.
type Event struct {
	T      vtime.Millis `json:"t"`
	Kind   Kind         `json:"kind"`
	MsgID  uint64       `json:"msg"`
	Broker int32        `json:"broker"`         // acting broker (-1: none)
	Peer   int32        `json:"peer,omitempty"` // link peer / subscriber
	Note   string       `json:"note,omitempty"` // drop reason, etc.
}

// Tracer consumes events. Implementations must be cheap when disabled —
// the simulator calls Emit on every hop of every message.
type Tracer interface {
	Emit(Event)
}

// Nop discards all events.
type Nop struct{}

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// Buffer retains events in memory for inspection in tests and tools.
type Buffer struct {
	Events []Event
}

// Emit implements Tracer.
func (b *Buffer) Emit(e Event) { b.Events = append(b.Events, e) }

// Count returns the number of events of a kind.
func (b *Buffer) Count(k Kind) int {
	n := 0
	for _, e := range b.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// JSONL streams events as JSON lines to a writer. Emit errors are
// remembered and reported by Err (tracing must not disturb a run).
type JSONL struct {
	W   io.Writer
	err error
}

// Emit implements Tracer.
func (j *JSONL) Emit(e Event) {
	if j.err != nil {
		return
	}
	raw, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.W.Write(append(raw, '\n')); err != nil {
		j.err = err
	}
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error { return j.err }
