// Package sim is a deterministic discrete-event simulation engine: a
// virtual clock and a time-ordered event queue. Events scheduled for the
// same instant execute in scheduling order, so simulation runs are exactly
// reproducible — the property every experiment in this repository leans
// on.
package sim

import (
	"fmt"

	"bdps/internal/vtime"
)

// Engine runs events in virtual time.
type Engine struct {
	now   vtime.Millis
	queue eventHeap
	seq   uint64
}

// New returns an engine at time 0.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() vtime.Millis { return e.now }

// Pending returns the number of scheduled, not-yet-run events.
func (e *Engine) Pending() int { return len(e.queue) }

// Runner is a pre-built event payload. Models on an allocation-sensitive
// path schedule a Runner they pool or reuse instead of a fresh closure
// per event; the engine only stores the interface (a pointer, boxed for
// free) and calls Run when the event fires.
type Runner interface {
	Run()
}

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a logic error in the embedding model, and silently reordering
// time would corrupt every metric downstream.
func (e *Engine) At(t vtime.Millis, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.queue.push(event{time: t, seq: e.seq, fn: fn})
	e.seq++
}

// AtRun schedules r.Run at absolute time t, with At's semantics.
func (e *Engine) AtRun(t vtime.Millis, r Runner) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.queue.push(event{time: t, seq: e.seq, r: r})
	e.seq++
}

// After schedules fn d milliseconds from now.
func (e *Engine) After(d vtime.Millis, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// AfterRun schedules r.Run d milliseconds from now.
func (e *Engine) AfterRun(d vtime.Millis, r Runner) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtRun(e.now+d, r)
}

// Run executes events until none remain, returning the final time.
func (e *Engine) Run() vtime.Millis {
	for len(e.queue) > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes all events with time <= t, then advances the clock to
// t (even if idle). Events scheduled during execution are honored if they
// fall within the horizon.
func (e *Engine) RunUntil(t vtime.Millis) {
	for len(e.queue) > 0 && e.queue[0].time <= t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *Engine) step() {
	ev := e.queue.pop()
	e.now = ev.time
	if ev.r != nil {
		ev.r.Run()
	} else {
		ev.fn()
	}
}

type event struct {
	time vtime.Millis
	seq  uint64
	fn   func() // exactly one of fn and r is set
	r    Runner
}

// less orders events by (time, seq). seq is unique per engine, so the
// order is total and pop order never depends on heap internals.
func (a *event) less(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventHeap is a hand-specialized 4-ary min-heap. container/heap would
// box every 40-byte event into an interface — one allocation per
// scheduled event on the hottest path of the simulator. The 4-ary shape
// also halves the tree depth versus binary, so pops touch fewer cache
// lines on the large queues congested runs build.
type eventHeap []event

// push appends ev and sifts it up.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q[i].less(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the closure/Runner so the slab doesn't pin it
	q = q[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].less(&q[m]) {
				m = j
			}
		}
		if !q[m].less(&q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}
