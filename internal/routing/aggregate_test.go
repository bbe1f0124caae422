package routing

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// qsub builds a two-attribute subscription on the quantized grid the
// aggregation tests churn over: cut points land on a handful of levels,
// so exact duplicates and proper covering both occur constantly.
func qsub(id msg.SubID, edge msg.NodeID, tier int, x1, x2 float64) *msg.Subscription {
	return &msg.Subscription{
		ID:       id,
		Edge:     edge,
		Filter:   filter.And(filter.Lt("A1", x1), filter.Lt("A2", x2)),
		Deadline: vtime.Millis(tier+1) * 10 * vtime.Second,
		Price:    float64(tier + 1),
	}
}

// deliverySet returns the concrete subscriptions a message is delivered
// to at each broker, expanding aggregated entries through their member
// lists, plus the set of next hops the message is forwarded on.
func deliverySet(tables map[msg.NodeID]*Table, m *msg.Message) (map[msg.NodeID][]msg.SubID, map[msg.NodeID][]msg.NodeID) {
	local := make(map[msg.NodeID][]msg.SubID)
	hops := make(map[msg.NodeID][]msg.NodeID)
	for nid, tb := range tables {
		subs := make(map[msg.SubID]bool)
		next := make(map[msg.NodeID]bool)
		for _, e := range tb.Match(m) {
			if e.Local() {
				subs[e.Sub.ID] = true
				if e.Agg != nil {
					for _, mem := range e.Agg.Members {
						subs[mem.ID] = true
					}
				}
			} else {
				next[e.Next] = true
			}
		}
		if len(subs) > 0 {
			ids := make([]msg.SubID, 0, len(subs))
			for id := range subs {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			local[nid] = ids
		}
		if len(next) > 0 {
			ns := make([]msg.NodeID, 0, len(next))
			for n := range next {
				ns = append(ns, n)
			}
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
			hops[nid] = ns
		}
	}
	return local, hops
}

func equalIDs(a, b []msg.SubID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalNodes(a, b []msg.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAggregatedEquivalenceRandomized is the load-bearing equivalence
// suite: a flat table set and an aggregated one process the same
// interleaved subscribe/unsubscribe schedule, and after every batch a
// battery of probe messages must see bit-identical delivery sets
// (aggregated matches expanded through group members) and bit-identical
// next-hop sets at every broker. The schedule is quantized so exact
// duplicates, proper covering, promotion, and re-exposure all occur.
func TestAggregatedEquivalenceRandomized(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{2, 4, 6, 8}
	probes := []float64{1, 3, 5, 7, 9}

	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		flat, err := Build(ov, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		aggTables, agg, err := BuildAggregated(ov, nil, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Both sides match through indexes: the tables start empty, and
		// every step moves the sources it created to an index (their
		// filters are one-sided, so Add alone would leave them scanning).
		indexAll := func() {
			for _, tb := range flat {
				tb.EnableIndex()
			}
			for _, tb := range aggTables {
				tb.EnableIndex()
			}
		}

		verify := func(step int) {
			t.Helper()
			for _, tables := range []map[msg.NodeID]*Table{flat, aggTables} {
				for nid, tb := range tables {
					for src, st := range tb.bySource {
						if st.ix == nil {
							t.Fatalf("seed %d step %d: broker %d source %d is not on an index", seed, step, nid, src)
						}
					}
				}
			}
			for _, ing := range ov.Ingress {
				for _, a1 := range probes {
					for _, a2 := range probes {
						m := &msg.Message{Ingress: ing, Attrs: msg.NumAttrs(map[string]float64{"A1": a1, "A2": a2})}
						fl, fh := deliverySet(flat, m)
						al, ah := deliverySet(aggTables, m)
						for nid := range flat {
							if !equalIDs(fl[nid], al[nid]) {
								t.Fatalf("seed %d step %d: broker %d delivery mismatch for A1=%v A2=%v ingress %d:\n flat %v\n agg  %v",
									seed, step, nid, a1, a2, ing, fl[nid], al[nid])
							}
							if !equalNodes(fh[nid], ah[nid]) {
								t.Fatalf("seed %d step %d: broker %d next-hop mismatch for A1=%v A2=%v ingress %d:\n flat %v\n agg  %v",
									seed, step, nid, a1, a2, ing, fh[nid], ah[nid])
							}
						}
					}
				}
			}
		}

		active := make(map[msg.SubID]bool)
		var order []msg.SubID
		nextID := msg.SubID(1)
		for step := 0; step < 160; step++ {
			if len(order) > 0 && rng.Intn(10) < 4 {
				// Unsubscribe a random active subscription on both sides.
				i := rng.Intn(len(order))
				id := order[i]
				order[i] = order[len(order)-1]
				order = order[:len(order)-1]
				delete(active, id)
				RemoveSubAll(flat, id)
				agg.Unsubscribe(id)
			} else {
				edge := ov.Edges[rng.Intn(len(ov.Edges))]
				s := qsub(nextID, edge, rng.Intn(2),
					grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))])
				nextID++
				active[s.ID] = true
				order = append(order, s.ID)
				NewInstaller(ov, Options{}).Install(flat, s)
				agg.Subscribe(s)
			}
			indexAll()
			if step%16 == 15 {
				verify(step)
			}
		}
		if agg.Agg.Suppressed() == 0 {
			t.Fatalf("seed %d: quantized schedule never aggregated anything", seed)
		}
		if fa, aa := Stats(flat).TotalEntries, Stats(aggTables).TotalEntries; aa > fa {
			t.Fatalf("seed %d: aggregated tables larger than flat (%d > %d)", seed, aa, fa)
		}

		// Drain: unsubscribing everything (including every covering rep)
		// must re-expose and then empty both sides completely.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, id := range order {
			RemoveSubAll(flat, id)
			agg.Unsubscribe(id)
			indexAll()
			verify(-1)
		}
		if n := Stats(aggTables).TotalEntries; n != 0 {
			t.Fatalf("seed %d: aggregated tables not empty after full drain: %d entries", seed, n)
		}
	}
}

// TestAggregateExactDuplicateFoldsAndPromotes covers the member tier: an
// exact-duplicate subscription installs no entries of its own, delivers
// through its representative's group, and inherits the rep's entries in
// place when the rep unsubscribes.
func TestAggregateExactDuplicateFoldsAndPromotes(t *testing.T) {
	ov := chainOverlay(t)
	tables, agg, err := BuildAggregated(ov, nil, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := sub(1, 2, "A1 < 5")
	s2 := sub(2, 2, "A1 < 5")
	agg.Subscribe(s1)
	agg.Subscribe(s2)

	if got := Stats(tables).TotalEntries; got != 3 {
		t.Fatalf("entries after duplicate subscribe = %d, want 3 (duplicate must fold)", got)
	}
	if agg.Agg.Suppressed() != 1 {
		t.Fatalf("suppressed = %d, want 1", agg.Agg.Suppressed())
	}
	m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 3, "A2": 1})}
	local, _ := deliverySet(tables, m)
	if !equalIDs(local[2], []msg.SubID{1, 2}) {
		t.Fatalf("edge delivery = %v, want [1 2]", local[2])
	}
	if n := tables[2].AggregatedEntries(); n == 0 {
		t.Fatal("edge table reports no aggregated entries despite a 2-strong group")
	}

	// Rep departs: the member is promoted into the rep's entries.
	agg.Unsubscribe(1)
	if got := Stats(tables).TotalEntries; got != 3 {
		t.Fatalf("entries after promotion = %d, want 3", got)
	}
	local, _ = deliverySet(tables, m)
	if !equalIDs(local[2], []msg.SubID{2}) {
		t.Fatalf("edge delivery after promotion = %v, want [2]", local[2])
	}
	for _, e := range tables[0].Entries(0) {
		if e.Sub.ID != 2 {
			t.Fatalf("ingress entry still owned by departed rep %d", e.Sub.ID)
		}
	}
	agg.Unsubscribe(2)
	if got := Stats(tables).TotalEntries; got != 0 {
		t.Fatalf("entries after last unsubscribe = %d, want 0", got)
	}
}

// TestAggregateCoveredReexposure covers the proper-covering tier: a
// covered subscription keeps only local delivery entries at its edge,
// upstream flooding is suppressed, and unsubscribing the coverer
// re-installs the covered subscription's upstream routes.
func TestAggregateCoveredReexposure(t *testing.T) {
	ov := chainOverlay(t)
	tables, agg, err := BuildAggregated(ov, nil, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	broad := sub(1, 2, "A1 < 8")
	narrow := sub(2, 2, "A1 < 5")
	agg.Subscribe(broad)
	agg.Subscribe(narrow)

	if !agg.Agg.IsForwarded(broad.ID) || agg.Agg.IsForwarded(narrow.ID) {
		t.Fatal("coverer must be forwarded, covered must not")
	}
	for _, nid := range []msg.NodeID{0, 1} {
		for _, e := range tables[nid].Entries(0) {
			if e.Sub.ID == narrow.ID {
				t.Fatalf("covered subscription leaked an upstream entry at broker %d", nid)
			}
		}
	}
	// A message inside the coverer but outside the covered filter is
	// forwarded (the rep stands for it) yet delivered only to the rep.
	wide := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 6, "A2": 1})}
	local, hops := deliverySet(tables, wide)
	if !equalIDs(local[2], []msg.SubID{1}) || len(hops[0]) == 0 {
		t.Fatalf("wide message: local=%v hops0=%v", local[2], hops[0])
	}
	inner := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 3, "A2": 1})}
	local, _ = deliverySet(tables, inner)
	if !equalIDs(local[2], []msg.SubID{1, 2}) {
		t.Fatalf("inner message delivery = %v, want [1 2]", local[2])
	}

	// Coverer departs: the covered subscription is re-exposed upstream.
	agg.Unsubscribe(broad.ID)
	if !agg.Agg.IsForwarded(narrow.ID) {
		t.Fatal("covered subscription not re-exposed after coverer unsubscribed")
	}
	local, _ = deliverySet(tables, wide)
	if len(local[2]) != 0 {
		t.Fatalf("wide message still delivered after coverer left: %v", local[2])
	}
	local, hops = deliverySet(tables, inner)
	if !equalIDs(local[2], []msg.SubID{2}) || len(hops[0]) == 0 {
		t.Fatalf("inner message after re-exposure: local=%v hops0=%v", local[2], hops[0])
	}
	agg.Unsubscribe(narrow.ID)
	if got := Stats(tables).TotalEntries; got != 0 {
		t.Fatalf("entries after drain = %d, want 0", got)
	}
}

// TestAggregateCoveredLocalUnsubscribe: a covered subscription's own
// departure is purely local — the coverer's upstream state is untouched.
func TestAggregateCoveredLocalUnsubscribe(t *testing.T) {
	ov := chainOverlay(t)
	tables, agg, err := BuildAggregated(ov, nil, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	broad := sub(1, 2, "A1 < 8")
	narrow := sub(2, 2, "A1 < 5")
	agg.Subscribe(broad)
	agg.Subscribe(narrow)
	before := Stats(tables).TotalEntries

	agg.Unsubscribe(narrow.ID)
	if got := Stats(tables).TotalEntries; got != before-1 {
		t.Fatalf("entries = %d, want %d (only the covered local entry removed)", got, before-1)
	}
	if !agg.Agg.IsForwarded(broad.ID) {
		t.Fatal("coverer lost forwarded status on covered departure")
	}
	if rc := agg.Agg.RefCount(broad.ID); rc != 1 {
		t.Fatalf("coverer refcount = %d, want 1", rc)
	}
}

// TestAggregateMaskedReadmitsUnderOtherRep: when a coverer departs, its
// masked subscriptions re-admit through the aggregator — and stay
// suppressed if another live rep still covers them.
func TestAggregateMaskedReadmitsUnderOtherRep(t *testing.T) {
	ov := chainOverlay(t)
	tables, agg, err := BuildAggregated(ov, nil, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1 := sub(1, 2, "A1 < 8")
	b2 := &msg.Subscription{ID: 2, Edge: 2, Filter: filter.Lt("A2", 8),
		Deadline: 10 * vtime.Second, Price: 1}
	covered := &msg.Subscription{ID: 3, Edge: 2,
		Filter:   filter.And(filter.Lt("A1", 5), filter.Lt("A2", 5)),
		Deadline: 10 * vtime.Second, Price: 1}
	agg.Subscribe(b1)
	agg.Subscribe(b2)
	agg.Subscribe(covered)
	if agg.Agg.IsForwarded(covered.ID) {
		t.Fatal("doubly-covered subscription was forwarded")
	}

	// Find which rep masked it, remove that rep: the survivor must pick
	// the orphan up without any upstream entry for the orphan appearing.
	masker, survivor := b1, b2
	if agg.Agg.RefCount(b2.ID) > 1 {
		masker, survivor = b2, b1
	}
	agg.Unsubscribe(masker.ID)
	if agg.Agg.IsForwarded(covered.ID) {
		t.Fatal("re-admitted subscription forwarded despite a surviving coverer")
	}
	if rc := agg.Agg.RefCount(survivor.ID); rc != 2 {
		t.Fatalf("surviving coverer refcount = %d, want 2", rc)
	}
	for _, nid := range []msg.NodeID{0, 1} {
		for _, e := range tables[nid].Entries(0) {
			if e.Sub.ID == covered.ID {
				t.Fatalf("re-admitted subscription leaked an upstream entry at broker %d", nid)
			}
		}
	}
	// The orphan still delivers locally.
	m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 3, "A2": 3})}
	local, _ := deliverySet(tables, m)
	for _, id := range []msg.SubID{survivor.ID, covered.ID} {
		found := false
		for _, got := range local[2] {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge delivery %v missing sub %d", local[2], id)
		}
	}
}

// TestAggregatedMatchDuringMutation is the aggregation flavor of the
// readers-writer contract under -race: matchers with private scratch
// run against tables that an AggTables mutator is churning through
// member attach/detach, covered refcounts, promotion, and re-exposure.
func TestAggregatedMatchDuringMutation(t *testing.T) {
	ov := chainOverlay(t)
	tables, agg, err := BuildAggregated(ov, nil, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	static := sub(1, 2, "A1 < 100")
	agg.Subscribe(static)
	// The static subscription's one-sided filter leaves its sources on a
	// scan; EnableIndex moves them to an index, which they keep.
	onIndex := func() {
		t.Helper()
		for _, nid := range []msg.NodeID{0, 2} {
			if st := tables[nid].bySource[0]; st == nil || st.ix == nil {
				t.Fatalf("broker %d: source 0 is not on an index", nid)
			}
		}
	}
	for _, tb := range tables {
		tb.EnableIndex()
	}
	onIndex()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(nid msg.NodeID) {
			defer wg.Done()
			var scratch filter.MatchScratch
			var buf []*Entry
			m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 50, "A2": 1})}
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				buf = tables[nid].MatchAppendWith(&scratch, m, buf[:0])
				ok := false
				for _, e := range buf {
					if e.Sub.ID == static.ID {
						ok = true
					}
					if e.Agg != nil {
						for _, mem := range e.Agg.Members {
							_ = mem.ID
						}
					}
				}
				mu.RUnlock()
				if !ok {
					t.Error("static subscription vanished from a concurrent aggregated match")
					return
				}
			}
		}(msg.NodeID(2 * (w % 2))) // alternate ingress and edge tables
	}

	// Mutator: churn duplicates, covered subs, and short-lived reps so
	// every aggregation transition runs against live matchers.
	live := make(map[msg.SubID]bool)
	for i := 0; i < 3000; i++ {
		id := msg.SubID(2 + i%31)
		var s *msg.Subscription
		switch i % 3 {
		case 0:
			s = sub(id, 2, "A1 < 100") // exact duplicate of static
		case 1:
			s = sub(id, 2, "A1 < 5") // properly covered
		default:
			s = &msg.Subscription{ID: id, Edge: 2, Filter: filter.Lt("A2", 7),
				Deadline: 10 * vtime.Second, Price: 1} // independent rep
		}
		mu.Lock()
		if live[id] {
			agg.Unsubscribe(id)
			delete(live, id)
		} else {
			agg.Subscribe(s)
			live[id] = true
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	onIndex()
}
