package broker

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// outcome is what one Process call hands on: the local deliveries and,
// per next hop, the targets of the entry enqueued there — each sorted by
// subscription id.
type outcome struct {
	deliveries []Delivery
	targets    map[msg.NodeID][]core.Target
	stamped    bool
}

// observe processes one matching message on a fresh broker over the
// table, so every queue holds exactly the entry this message made.
func observe(t *testing.T, tb *routing.Table) outcome {
	t.Helper()
	b, err := New(Config{
		ID: 1, Scenario: msg.SSD, Params: core.DefaultParams(),
		Strategy: core.MaxEB{}, Table: tb,
		LinkMeans: map[msg.NodeID]float64{2: 70, 3: 70},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := b.NewProcessor()
	res := p.Process(message(3, 0), 1000)
	out := outcome{
		deliveries: slices.Clone(res.Deliveries),
		targets:    map[msg.NodeID][]core.Target{},
		stamped:    p.stamp,
	}
	slices.SortFunc(out.deliveries, func(a, b Delivery) int { return int(a.SubID - b.SubID) })
	for _, hop := range res.EnqueuedHops {
		entries := b.Queue(hop).Entries()
		if len(entries) != 1 {
			t.Fatalf("queue %d holds %d entries, want 1", hop, len(entries))
		}
		ts := slices.Clone(entries[0].Targets)
		slices.SortFunc(ts, func(a, b core.Target) int { return int(a.SubID - b.SubID) })
		out.targets[hop] = ts
	}
	return out
}

// ids lists an outcome's subscriptions: the local deliveries, then the
// targets per hop.
func (o outcome) ids() (local []msg.SubID, remote map[msg.NodeID][]msg.SubID) {
	for _, d := range o.deliveries {
		local = append(local, d.SubID)
	}
	remote = map[msg.NodeID][]msg.SubID{}
	for hop, ts := range o.targets {
		for _, tg := range ts {
			remote[hop] = append(remote[hop], msg.SubID(tg.SubID))
		}
	}
	return local, remote
}

func wantIDs(t *testing.T, o outcome, local []msg.SubID, remote map[msg.NodeID][]msg.SubID) {
	t.Helper()
	gotLocal, gotRemote := o.ids()
	if !slices.Equal(gotLocal, local) || !reflect.DeepEqual(gotRemote, remote) {
		t.Fatalf("delivered %v, enqueued %v; want %v, %v", gotLocal, gotRemote, local, remote)
	}
}

// TestProcessSkipsStampsWhenDistinct: a broker skips its per-message
// subscription dedup exactly while routing.Table.Distinct holds for the
// message's ingress — no subscription holds two of its slots, no entry
// carries a covering group — and what it then delivers and enqueues is
// what the stamped path gives. Multi-path (k = 2) slots of subscriptions
// 5000 and −3, both outside the dense stamp range, and a group with
// members keep the stamps on; removing them, across a compaction of the
// source, brings the count back to zero and the skip back.
func TestProcessSkipsStampsWhenDistinct(t *testing.T) {
	mk := func(id msg.SubID, src string) *msg.Subscription {
		return &msg.Subscription{ID: id, Edge: 9, Filter: filter.MustParse(src),
			Deadline: 30 * vtime.Second, Price: 2}
	}
	tb := routing.NewTable(1)
	add := func(s *msg.Subscription, next msg.NodeID, path int32) {
		e := &routing.Entry{Sub: s, Source: 0, Next: next, PathID: path}
		if next != msg.None {
			e.Hops, e.Rate = 1, stats.Normal{Mean: 70, Sigma: 20}
		}
		tb.Add(e)
	}
	for path := int32(0); path < 2; path++ {
		add(mk(5000, "A1 < 5"), msg.None, path)
		add(mk(-3, "A1 < 5"), 2, path)
	}
	add(mk(7, "A1 < 5"), msg.None, 0)
	add(mk(8, "A1 < 5"), 2, 0)
	add(mk(9, "A1 < 5"), 3, 0)
	rep := mk(10, "A1 < 5")
	add(rep, msg.None, 0)
	if !tb.Attach(rep.ID, mk(11, "A1 < 5")) || !tb.Attach(rep.ID, mk(12, "A1 < 5")) {
		t.Fatal("Attach failed")
	}

	remote := map[msg.NodeID][]msg.SubID{2: {-3, 8}, 3: {9}}
	o := observe(t, tb)
	if tb.Distinct(0) || !o.stamped {
		t.Fatal("multi-slot subscriptions and a group: the stamps must run")
	}
	wantIDs(t, o, []msg.SubID{7, 10, 11, 12, 5000}, remote)

	tb.RemoveSub(rep.ID)
	if tb.Distinct(0) {
		t.Fatal("Distinct with 5000 and -3 still holding two slots each")
	}
	wantIDs(t, observe(t, tb), []msg.SubID{7, 5000}, remote)
	tb.RemoveSub(5000)

	// Filler subscriptions, added and removed again: tombstones outnumber
	// the live slots and the source compacts, recounting -3's two slots.
	for id := msg.SubID(100); id < 140; id++ {
		add(mk(id, "A1 > 1000"), msg.None, 0)
	}
	for id := msg.SubID(100); id < 140; id++ {
		tb.RemoveSub(id)
	}
	if tb.Distinct(0) {
		t.Fatal("Distinct after a compaction while -3 holds two slots")
	}
	wantIDs(t, observe(t, tb), []msg.SubID{7}, remote)

	tb.RemoveSub(-3)
	remote = map[msg.NodeID][]msg.SubID{2: {8}, 3: {9}}
	for _, indexed := range []bool{false, true} {
		if indexed {
			tb.EnableIndex()
		}
		if !tb.Distinct(0) {
			t.Fatal("no multi-slot subscription and no group left: Distinct must hold")
		}
		skipped := observe(t, tb)
		if skipped.stamped {
			t.Fatal("the stamps ran although the table is distinct")
		}
		wantIDs(t, skipped, []msg.SubID{7}, remote)

		// The same match with the stamps forced on: a multi-slot
		// subscription that matches nothing.
		add(mk(6000, "A1 > 1000"), msg.None, 0)
		add(mk(6000, "A1 > 1000"), msg.None, 1)
		stamped := observe(t, tb)
		if !stamped.stamped {
			t.Fatal("a subscription holding two slots must turn the stamps back on")
		}
		stamped.stamped = false
		if !reflect.DeepEqual(stamped, skipped) {
			t.Fatalf("skip path %+v, stamped path %+v", skipped, stamped)
		}
		tb.RemoveSub(6000)
	}
}

// TestProcessDistinctDuringChurn is the skip under -race: worker
// Processors read the table's per-source count under the reader lock
// while a mutator adds and removes a matching multi-path subscription
// and a group member under the writer lock. Whichever table state a
// message sees, every subscription it reaches is delivered once.
func TestProcessDistinctDuringChurn(t *testing.T) {
	mk := func(id msg.SubID) *msg.Subscription {
		return &msg.Subscription{ID: id, Edge: 0, Filter: filter.MustParse("A1 < 100")}
	}
	table := routing.NewTable(0)
	static := mk(1)
	table.Add(&routing.Entry{Sub: static, Source: 0, Next: msg.None})
	// The one-sided filters leave the source on its scan; EnableIndex
	// moves it to an index, which it keeps through the churn below.
	table.EnableIndex()
	b, err := New(Config{
		ID: 0, Scenario: msg.PSD, Params: core.DefaultParams(),
		Strategy: core.MaxEB{}, Table: table,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.RWMutex
	var wg sync.WaitGroup
	const workers, perWorker = 4, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			proc := b.NewProcessor()
			for i := 0; i < perWorker; i++ {
				m := &msg.Message{
					ID: msg.MakeID(msg.NodeID(w), uint32(i)), Publisher: msg.NodeID(w),
					Allowed: vtime.Hour, SizeKB: 1,
					Attrs: msg.NumAttrs(map[string]float64{"A1": 50}),
				}
				mu.RLock()
				res := proc.Process(m, 1)
				seen := map[msg.SubID]int{}
				for _, d := range res.Deliveries {
					seen[d.SubID]++
				}
				mu.RUnlock()
				for id, n := range seen {
					if n != 1 {
						t.Errorf("worker %d msg %d: subscription %d delivered %d times", w, i, id, n)
						return
					}
				}
				if seen[static.ID] != 1 {
					t.Errorf("worker %d msg %d: static subscription not delivered", w, i)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			id := msg.SubID(5000 + i%7)
			mu.Lock()
			if table.RemoveSub(id) == 0 {
				s := mk(id)
				for path := int32(0); path < 1+int32(i%2); path++ {
					table.Add(&routing.Entry{Sub: s, Source: 0, Next: msg.None, PathID: path})
				}
				if i%3 == 0 {
					table.Attach(id, mk(-id))
				}
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	<-done
}
