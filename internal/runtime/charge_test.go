package runtime

import (
	"testing"

	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/trace"
	"bdps/internal/vtime"
)

// pooledEntry is a queue entry holding a reference on a pooled message,
// as a live broker's entries do, plus one reference of the test's own:
// the message outlives exactly one release by the charge.
func pooledEntry(id msg.ID) (*core.Entry, *msg.Message) {
	m := msg.GetMessage()
	m.ID = id
	m.Retain(1)
	e := core.GetEntry()
	e.MsgID, e.Data = uint64(id), m
	return e, m
}

// releasedOnce reports whether the charge dropped exactly one of m's two
// references: m is still alive, and the test's own release is its last.
func releasedOnce(t *testing.T, m *msg.Message, id msg.ID) {
	t.Helper()
	if m.ID != id {
		t.Fatalf("message %d released more than once", id)
	}
	m.Release()
	if m.ID != 0 {
		t.Fatalf("message %d not released by the charge", id)
	}
}

// TestChargeCountsEachOutcomeOnce feeds one of every broker outcome
// through the charges and pins the exact ledger deltas, the trace events
// and one release per dead entry's message.
func TestChargeCountsEachOutcomeOnce(t *testing.T) {
	led := &metrics.Collector{}
	var tr trace.Buffer
	c := NewCharge(led, &tr)
	const at, now = msg.NodeID(4), vtime.Millis(1000)

	shedA, mA := pooledEntry(11)
	shedB, mB := pooledEntry(12)
	expired, mE := pooledEntry(13)
	hopeless, mH := pooledEntry(14)

	m := &msg.Message{ID: 7}
	c.Result(at, m, &broker.Result{
		Deliveries: []broker.Delivery{
			{SubID: 1, Price: 2.5, Published: 0, Latency: 40, Valid: true},
			{SubID: 2, Price: 2.5, Published: 0, Latency: 900, Valid: false},
		},
		ArrivalDrops: 3,
		Shed:         []*core.Entry{shedA, shedB},
	}, now)
	c.Result(at, m, &broker.Result{Duplicate: true}, now)
	c.Drops(at, []core.Drop{
		{Entry: expired, Reason: core.DropExpired},
		{Entry: hopeless, Reason: core.DropHopeless},
	}, now)

	want := map[metrics.Counter]int{
		metrics.ValidDeliveries: 1,
		metrics.LateDeliveries:  1,
		metrics.Duplicates:      1,
		metrics.DropsArrival:    3,
		metrics.DropsShed:       2,
		metrics.DropsExpired:    1,
		metrics.DropsHopeless:   1,
	}
	got := led.Ledger()
	for id, info := range metrics.Counters {
		if v := *info.Field(&got); v != want[metrics.Counter(id)] {
			t.Errorf("%s = %d, want %d", info.Name, v, want[metrics.Counter(id)])
		}
	}
	if r := led.Result(); r.Earning != 2.5 {
		t.Errorf("earning %v, want the valid delivery's price 2.5", r.Earning)
	}

	wantEvents := []trace.Event{
		{T: now, Kind: trace.Deliver, MsgID: 7, Broker: 4, Peer: 1},
		{T: now, Kind: trace.Deliver, MsgID: 7, Broker: 4, Peer: 2},
		{T: now, Kind: trace.Drop, MsgID: 11, Broker: 4, Note: "shed"},
		{T: now, Kind: trace.Drop, MsgID: 12, Broker: 4, Note: "shed"},
		{T: now, Kind: trace.Drop, MsgID: 13, Broker: 4, Note: "expired"},
		{T: now, Kind: trace.Drop, MsgID: 14, Broker: 4, Note: "hopeless"},
	}
	if len(tr.Events) != len(wantEvents) {
		t.Fatalf("traced %d events, want %d: %+v", len(tr.Events), len(wantEvents), tr.Events)
	}
	for i, ev := range tr.Events {
		if ev != wantEvents[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, wantEvents[i])
		}
	}

	releasedOnce(t, mA, 11)
	releasedOnce(t, mB, 12)
	releasedOnce(t, mE, 13)
	releasedOnce(t, mH, 14)
}

// TestChargeResume pins the resume charge and the replay gate it counts
// by: a bound still holding replays, one past its bound or with none
// does not.
func TestChargeResume(t *testing.T) {
	led := &metrics.Collector{}
	c := NewCharge(led, nil)
	replayed, expired := 0, 0
	for _, d := range []struct{ published, allowed vtime.Millis }{
		{900, 200}, // 100 ms of a 200 ms bound used: replays
		{800, 200}, // exactly at the bound: replays
		{700, 200}, // past it
		{950, 0},   // no bound to hold
	} {
		if ReplayExpired(d.published, d.allowed, 1000) {
			expired++
		} else {
			replayed++
		}
	}
	c.Resume(replayed, expired)
	c.Resume(0, 0)
	got := led.Ledger()
	if got.SessionsResumed != 2 || got.ReplayedMsgs != 2 || got.DroppedDeadline != 2 {
		t.Errorf("resumed %d replayed %d dropped %d, want 2 2 2",
			got.SessionsResumed, got.ReplayedMsgs, got.DroppedDeadline)
	}
}
