package sim

import (
	"testing"

	"bdps/internal/vtime"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order at %d: %d", i, v)
		}
	}
}

func TestEngineEventSchedulesEvent(t *testing.T) {
	e := New()
	var hits []vtime.Millis
	e.At(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v, want [10 15]", hits)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
	if e.Now() != 20 {
		t.Errorf("now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(100)
	if ran != 3 || e.Now() != 100 {
		t.Errorf("after horizon: ran=%d now=%v", ran, e.Now())
	}
}

func TestEngineRunUntilIdleAdvancesClock(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Errorf("idle advance: now = %v, want 500", e.Now())
	}
}

func TestEnginePanicsOnPastScheduling(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After should panic")
		}
	}()
	e.After(-1, func() {})
}

// TestEventHeapOrder stress-tests the specialized 4-ary heap against the
// (time, seq) total order with interleaved pushes and pops.
func TestEventHeapOrder(t *testing.T) {
	var h eventHeap
	rng := uint64(0x9e3779b97f4a7c15) // deterministic LCG, no math/rand
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	seq := uint64(0)
	push := func() {
		h.push(event{time: vtime.Millis(next() % 1000), seq: seq})
		seq++
	}
	for i := 0; i < 500; i++ {
		push()
	}
	var last event
	popped := 0
	checkPop := func() {
		ev := h.pop()
		if popped > 0 && !last.less(&ev) {
			t.Fatalf("pop %d out of order: (%v,%d) after (%v,%d)",
				popped, ev.time, ev.seq, last.time, last.seq)
		}
		last = ev
		popped++
	}
	// Drain halfway, interleave more pushes at later times, drain fully.
	for i := 0; i < 250; i++ {
		checkPop()
	}
	for i := 0; i < 300; i++ {
		h.push(event{time: 1000 + vtime.Millis(next()%1000), seq: seq})
		seq++
	}
	for len(h) > 0 {
		checkPop()
	}
	if popped != 800 {
		t.Fatalf("popped %d events, want 800", popped)
	}
}

func TestEngineDeterminism(t *testing.T) {
	trace := func() []vtime.Millis {
		e := New()
		var out []vtime.Millis
		var tick func()
		n := 0
		tick = func() {
			out = append(out, e.Now())
			n++
			if n < 50 {
				e.After(vtime.Millis(n%7)+1, tick)
			}
		}
		e.At(0, tick)
		e.Run()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatal("different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
