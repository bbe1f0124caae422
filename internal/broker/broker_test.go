package broker

import (
	"runtime/debug"
	"slices"
	"testing"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// testTable builds a routing table for broker 1 with:
//   - a local subscription (sub 1)
//   - two remote subscriptions via hop 2 (subs 2, 3)
//   - one remote subscription via hop 3 (sub 4)
//
// All filters are "A1 < 5". SSD deadlines/prices set per subscription.
func testTable(t *testing.T) *routing.Table {
	t.Helper()
	mk := func(id msg.SubID, dl vtime.Millis, pr float64) *msg.Subscription {
		return &msg.Subscription{ID: id, Edge: 9, Filter: filter.MustParse("A1 < 5"),
			Deadline: dl, Price: pr}
	}
	tb := routing.NewTable(1)
	tb.Add(&routing.Entry{Sub: mk(1, 10*vtime.Second, 3), Source: 0, Next: msg.None})
	tb.Add(&routing.Entry{Sub: mk(2, 30*vtime.Second, 2), Source: 0, Next: 2, Hops: 2,
		Rate: stats.Normal{Mean: 140, Sigma: 28}})
	tb.Add(&routing.Entry{Sub: mk(3, 60*vtime.Second, 1), Source: 0, Next: 2, Hops: 2,
		Rate: stats.Normal{Mean: 140, Sigma: 28}})
	tb.Add(&routing.Entry{Sub: mk(4, 30*vtime.Second, 2), Source: 0, Next: 3, Hops: 1,
		Rate: stats.Normal{Mean: 70, Sigma: 20}})
	return tb
}

func testBroker(t *testing.T, scenario msg.Scenario, dedup bool) *Broker {
	t.Helper()
	b, err := New(Config{
		ID:        1,
		Scenario:  scenario,
		Params:    core.DefaultParams(),
		Strategy:  core.MaxEB{},
		Table:     testTable(t),
		LinkMeans: map[msg.NodeID]float64{2: 70, 3: 70},
		Dedup:     dedup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func message(a1 float64, published vtime.Millis) *msg.Message {
	return &msg.Message{
		ID: 100, Publisher: 0, Ingress: 0,
		Published: published, SizeKB: 50,
		Attrs: msg.NumAttrs(map[string]float64{"A1": a1, "A2": 1}),
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Table: routing.NewTable(1)}); err == nil {
		t.Error("nil strategy should fail")
	}
	if _, err := New(Config{Strategy: core.FIFO{}}); err == nil {
		t.Error("nil table should fail")
	}
}

func TestProcessDeliversLocallyAndEnqueues(t *testing.T) {
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	m := message(3, 0)
	res := p.Process(m, 1000)

	if len(res.Deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(res.Deliveries))
	}
	d := res.Deliveries[0]
	if d.SubID != 1 || !d.Valid || d.Latency != 1000 || d.Price != 3 {
		t.Errorf("delivery = %+v", d)
	}

	if len(res.EnqueuedHops) != 2 {
		t.Fatalf("enqueued hops = %v, want 2", res.EnqueuedHops)
	}
	// Hop 2 entry carries both subs 2 and 3.
	q2 := b.Queue(2)
	if q2.Len() != 1 {
		t.Fatalf("queue 2 len = %d", q2.Len())
	}
	e := q2.Entries()[0]
	if len(e.Targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(e.Targets))
	}
	// SSD: deadlines are absolute per-subscription.
	if e.Targets[0].Deadline != 30*vtime.Second || e.Targets[0].Price != 2 {
		t.Errorf("target 0 = %+v", e.Targets[0])
	}
	if e.Targets[1].Deadline != 60*vtime.Second || e.Targets[1].Price != 1 {
		t.Errorf("target 1 = %+v", e.Targets[1])
	}
	if e.Data.(*msg.Message) != m {
		t.Error("entry must carry the message")
	}
}

func TestProcessNonMatchingMessage(t *testing.T) {
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	res := p.Process(message(7, 0), 1000) // A1=7 fails "A1<5"
	if len(res.Deliveries) != 0 || len(res.EnqueuedHops) != 0 || res.ArrivalDrops != 0 {
		t.Errorf("non-matching message produced work: %+v", res)
	}
}

func TestProcessWrongIngressIgnored(t *testing.T) {
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	m := message(3, 0)
	m.Ingress = 5 // table only has source 0
	res := p.Process(m, 1000)
	if len(res.Deliveries) != 0 || len(res.EnqueuedHops) != 0 {
		t.Errorf("wrong-ingress message produced work: %+v", res)
	}
}

func TestProcessPSDUsesPublisherBound(t *testing.T) {
	b := testBroker(t, msg.PSD, false)
	p := b.NewProcessor()
	m := message(3, 0)
	m.Allowed = 20 * vtime.Second
	res := p.Process(m, 1000)
	if len(res.Deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(res.Deliveries))
	}
	if res.Deliveries[0].Price != 1 {
		t.Errorf("PSD price = %v, want 1", res.Deliveries[0].Price)
	}
	e := b.Queue(2).Entries()[0]
	for _, tg := range e.Targets {
		if tg.Deadline != 20*vtime.Second {
			t.Errorf("PSD target deadline = %v, want the publisher bound", tg.Deadline)
		}
		if tg.Price != 1 {
			t.Errorf("PSD target price = %v, want 1", tg.Price)
		}
	}
}

func TestProcessLateLocalDelivery(t *testing.T) {
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	// Sub 1 allows 10 s; arrival at 11 s is late.
	res := p.Process(message(3, 0), 11*vtime.Second)
	found := false
	for _, d := range res.Deliveries {
		if d.SubID == 1 {
			found = true
			if d.Valid {
				t.Error("late delivery marked valid")
			}
		}
	}
	if !found {
		t.Fatal("local delivery missing")
	}
}

func TestProcessArrivalDropExpired(t *testing.T) {
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	// At t = 61 s every remote deadline (30 s, 60 s) has passed.
	res := p.Process(message(3, 0), 61*vtime.Second)
	if res.ArrivalDrops != 2 {
		t.Errorf("arrival drops = %d, want 2 (both hops)", res.ArrivalDrops)
	}
	if len(res.EnqueuedHops) != 0 {
		t.Error("expired intents must not be enqueued")
	}
}

func TestProcessArrivalDropHopeless(t *testing.T) {
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	// At t = 29.9 s, sub 4 via hop 3 has 98 ms of slack against a
	// N(70,20) ms/KB single-hop residual for 50 KB: success ≈ 3e-4 < ε,
	// hopeless → the hop-3 intent drops. Hop 2 survives through sub 3
	// (60 s deadline) even though sub 2 (30 s) is hopeless too.
	res := p.Process(message(3, 0), 29900)
	if len(res.EnqueuedHops) != 1 || res.EnqueuedHops[0] != 2 {
		t.Errorf("enqueued hops = %v, want [2]", res.EnqueuedHops)
	}
	if res.ArrivalDrops != 1 {
		t.Errorf("arrival drops = %d, want 1", res.ArrivalDrops)
	}
}

func TestProcessDedup(t *testing.T) {
	b := testBroker(t, msg.SSD, true)
	p := b.NewProcessor()
	m := message(3, 0)
	first := p.Process(m, 1000)
	if first.Duplicate {
		t.Fatal("first arrival flagged duplicate")
	}
	second := p.Process(m, 2000)
	if !second.Duplicate {
		t.Fatal("second arrival not deduplicated")
	}
	if len(second.Deliveries) != 0 || len(second.EnqueuedHops) != 0 {
		t.Error("duplicate must produce no work")
	}
	// Without dedup the same message processes twice.
	b2 := testBroker(t, msg.SSD, false)
	p2 := b2.NewProcessor()
	p2.Process(m, 1000)
	again := p2.Process(m, 2000)
	if again.Duplicate || len(again.Deliveries) != 1 {
		t.Error("dedup off: reprocessing expected")
	}
}

func TestQueueReuseAndPeak(t *testing.T) {
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	q := b.Queue(2)
	if b.Queue(2) != q {
		t.Error("Queue must return the same instance per neighbor")
	}
	if q.LinkMean != 70 {
		t.Errorf("queue link mean = %v, want 70", q.LinkMean)
	}
	p.Process(message(3, 0), 0)
	p.Process(message(2, 0), 0)
	if b.PeakQueue() != 2 {
		t.Errorf("peak = %d, want 2", b.PeakQueue())
	}
}

func TestBuildEntrySkipsUnboundedTargets(t *testing.T) {
	// SSD subscription with no deadline: unschedulable, skipped.
	tb := routing.NewTable(1)
	tb.Add(&routing.Entry{
		Sub:    &msg.Subscription{ID: 5, Edge: 9, Filter: filter.MustParse("A1 < 5")},
		Source: 0, Next: 2, Hops: 1, Rate: stats.Normal{Mean: 70, Sigma: 20},
	})
	b, err := New(Config{ID: 1, Scenario: msg.SSD, Params: core.DefaultParams(),
		Strategy: core.MaxEB{}, Table: tb, LinkMeans: map[msg.NodeID]float64{2: 70}})
	if err != nil {
		t.Fatal(err)
	}
	res := b.NewProcessor().Process(message(3, 0), 0)
	if len(res.EnqueuedHops) != 0 || res.ArrivalDrops != 1 {
		t.Errorf("unbounded-target entry should drop at arrival: %+v", res)
	}
}

// TestProcessWithServesManyBrokers: one Processor lent to two brokers,
// messages interleaved between them, decides for each exactly what a
// Processor of its own decides for a twin broker — and each broker keeps
// its own dedup state.
func TestProcessWithServesManyBrokers(t *testing.T) {
	mk := func() [2]*Broker { return [2]*Broker{testBroker(t, msg.SSD, false), testBroker(t, msg.PSD, true)} }
	lent, twins := mk(), mk()
	own := [2]*Processor{twins[0].NewProcessor(), twins[1].NewProcessor()}
	var shared Processor
	var msgs []*msg.Message
	for i, a1 := range []float64{3, 7, 2, 4, 9, 1} {
		m := message(a1, vtime.Millis(i)*vtime.Second)
		m.ID, m.Allowed = msg.ID(i), 20*vtime.Second
		msgs = append(msgs, m)
	}
	msgs = append(msgs, msgs[0]) // a repeat: a duplicate at the dedup broker alone
	for i, m := range msgs {
		now := m.Published + 500
		for k := range lent {
			got := lent[k].ProcessWith(&shared, m, now)
			want := own[k].Process(m, now)
			if !slices.Equal(got.Deliveries, want.Deliveries) || !slices.Equal(got.EnqueuedHops, want.EnqueuedHops) ||
				got.ArrivalDrops != want.ArrivalDrops || got.Duplicate != want.Duplicate {
				t.Fatalf("message %d at broker %d: lent processor %+v, own %+v", i, k, got, want)
			}
			if dup := i == len(msgs)-1 && k == 1; got.Duplicate != dup {
				t.Errorf("message %d at broker %d: duplicate = %v, want %v", i, k, got.Duplicate, dup)
			}
		}
	}
	for k := range lent {
		for _, hop := range []msg.NodeID{2, 3} {
			if got, want := lent[k].Queue(hop).Len(), twins[k].Queue(hop).Len(); got != want || got == 0 {
				t.Errorf("broker %d queue to %d holds %d, its twin %d", k, hop, got, want)
			}
		}
	}
}

// TestProcessScratchReuse pins the reused-Result contract: a Result is
// valid until its Processor's next Process call, and back-to-back calls
// produce independent, correct decisions (the scratch buffers must not
// leak state between messages).
func TestProcessScratchReuse(t *testing.T) {
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	first := p.Process(message(3, 0), 1000)
	if len(first.Deliveries) != 1 || len(first.EnqueuedHops) != 2 {
		t.Fatalf("first = %+v", first)
	}
	// A non-matching message must come back empty, not show stale hops.
	second := p.Process(message(7, 0), 1000)
	if len(second.Deliveries) != 0 || len(second.EnqueuedHops) != 0 {
		t.Fatalf("second reused stale scratch: %+v", second)
	}
	third := p.Process(message(2, 0), 2000)
	if len(third.Deliveries) != 1 || len(third.EnqueuedHops) != 2 {
		t.Fatalf("third = %+v", third)
	}
	if third.Deliveries[0].Latency != 2000 {
		t.Errorf("latency = %v, want 2000", third.Deliveries[0].Latency)
	}
	// Entries enqueued across the calls are distinct pooled objects with
	// the right targets.
	q2 := b.Queue(2)
	if q2.Len() != 2 {
		t.Fatalf("queue 2 len = %d, want 2", q2.Len())
	}
	a, c := q2.Entries()[0], q2.Entries()[1]
	if a == c {
		t.Fatal("pooled entries must be distinct while both are queued")
	}
	if len(a.Targets) != 2 || len(c.Targets) != 2 {
		t.Errorf("targets = %d/%d, want 2/2", len(a.Targets), len(c.Targets))
	}
}

// TestProcessSteadyStateAllocs measures the processing hot path: after
// warm-up, a non-enqueuing (local-delivery only) message processes with
// zero allocations, and a full enqueue path stays within the pooled
// entry's amortized cost.
func TestProcessSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is nondeterministic under -race (instrumentation allocates)")
	}
	b := testBroker(t, msg.SSD, false)
	p := b.NewProcessor()
	m := message(3, 0)
	drain := func() {
		for _, hop := range []msg.NodeID{2, 3} {
			q := b.Queue(hop)
			for q.Len() > 0 {
				e, _ := q.PopNext(core.FIFO{}, 0, b.Params())
				if e == nil {
					break
				}
				e.Release()
			}
		}
	}
	for i := 0; i < 10; i++ {
		p.Process(m, 0)
		drain()
	}
	// Disable GC around the measurement: a collection mid-run clears
	// sync.Pool and the refill would be miscounted as a steady-state
	// allocation (a real flake under -race, where GC pressure is high).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		p.Process(m, 0)
		drain()
	})
	// The steady-state budget is zero; allow a fraction for pool variance.
	if allocs > 1 {
		t.Errorf("steady-state Process allocates %v objects per run, want ~0", allocs)
	}
}

// TestProcessAggregatedMemberFanout: a local aggregated entry delivers
// to its representative and to every exact-duplicate member folded into
// it — once each per message, even when multipath installs duplicate
// local entries sharing the group.
func TestProcessAggregatedMemberFanout(t *testing.T) {
	mk := func(id msg.SubID) *msg.Subscription {
		return &msg.Subscription{ID: id, Edge: 1, Filter: filter.MustParse("A1 < 5"),
			Deadline: 10 * vtime.Second, Price: 3}
	}
	tb := routing.NewTable(1)
	rep := mk(1)
	// Two local entries for the rep, as multipath routing would install.
	tb.Add(&routing.Entry{Sub: rep, Source: 0, Next: msg.None})
	tb.Add(&routing.Entry{Sub: rep, Source: 0, Next: msg.None})
	if !tb.Attach(rep.ID, mk(5)) || !tb.Attach(rep.ID, mk(6)) {
		t.Fatal("Attach failed")
	}
	b, err := New(Config{
		ID: 1, Scenario: msg.SSD, Params: core.DefaultParams(),
		Strategy: core.MaxEB{}, Table: tb,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := b.NewProcessor()

	res := p.Process(message(3, 0), 1000)
	got := make(map[msg.SubID]int)
	for _, d := range res.Deliveries {
		got[d.SubID]++
		if !d.Valid || d.Price != 3 {
			t.Errorf("delivery %+v, want valid at price 3", d)
		}
	}
	for _, id := range []msg.SubID{1, 5, 6} {
		if got[id] != 1 {
			t.Fatalf("deliveries per sub = %v, want exactly one each for 1, 5, 6", got)
		}
	}

	// Detach one member: the next message no longer fans out to it.
	tb.Detach(rep.ID, 5)
	res = p.Process(message(3, 0), 2000)
	got = make(map[msg.SubID]int)
	for _, d := range res.Deliveries {
		got[d.SubID]++
	}
	if got[5] != 0 || got[1] != 1 || got[6] != 1 {
		t.Fatalf("deliveries after detach = %v, want 1 and 6 only", got)
	}
}

// TestSubStampsDenseAndSparse: the within-message subscription dedup
// answers the same for ids on the dense slice, past its limit and below
// zero, across epochs, without clearing anything.
func TestSubStampsDenseAndSparse(t *testing.T) {
	var s subStamps
	ids := []msg.SubID{0, 7, denseSubs - 1, denseSubs, denseSubs + 5, 1 << 30, -3}
	for epoch := uint64(1); epoch <= 3; epoch++ {
		for _, id := range ids {
			if !s.first(id, epoch) {
				t.Fatalf("epoch %d: id %d reported as already taken", epoch, id)
			}
		}
		for _, id := range ids {
			if s.first(id, epoch) {
				t.Fatalf("epoch %d: id %d taken twice", epoch, id)
			}
		}
	}
	if len(s.dense) > denseSubs {
		t.Fatalf("dense stamps grew to %d, limit %d", len(s.dense), denseSubs)
	}
	if len(s.sparse) != 4 {
		t.Fatalf("sparse stamps hold %d ids, want the 4 outside [0, %d)", len(s.sparse), denseSubs)
	}
}
