package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/topology"
)

// Churn-oriented table tests: Add and RemoveSub must keep each source's
// matcher alive and correct — the pre-rework table nil-ed the index on
// every mutation, knocking matching back to a linear scan.

func churnSub(id msg.SubID, edge msg.NodeID, src string) *msg.Subscription {
	return &msg.Subscription{ID: id, Edge: edge, Filter: filter.MustParse(src)}
}

// TestIndexSurvivesMutation is the acceptance assertion: neither Add nor
// RemoveSub discards an index, and matching through it stays correct
// after both.
func TestIndexSurvivesMutation(t *testing.T) {
	tb := NewTable(1)
	tb.Add(&Entry{Sub: churnSub(1, 2, "A1 < 5"), Source: 0, Next: 2})
	if tb.bySource[0].ix != nil {
		t.Fatal("a one-sided filter moved its source to an index")
	}
	tb.EnableIndex()
	if tb.bySource[0].ix == nil {
		t.Fatal("EnableIndex did not build the index")
	}

	tb.Add(&Entry{Sub: churnSub(2, 2, "A1 < 9"), Source: 0, Next: 2})
	if tb.bySource[0].ix == nil {
		t.Fatal("Add discarded the index")
	}
	m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 7})}
	if got := tb.Match(m); len(got) != 1 || got[0].Sub.ID != 2 {
		t.Fatalf("match after post-index Add = %v", got)
	}

	tb.RemoveSub(2)
	if tb.bySource[0].ix == nil {
		t.Fatal("RemoveSub discarded the index")
	}
	m2 := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 3})}
	if got := tb.Match(m2); len(got) != 1 || got[0].Sub.ID != 1 {
		t.Fatalf("match after indexed RemoveSub = %v", got)
	}
}

// TestTableChurnEquivalence churns two tables through the same random
// installs and removals (and the slot compactions they force) and checks
// at every step boundary that each returns exactly the live entries
// whose filters match, in slot order — per-entry Filter.Match is the
// oracle. One table picks its sources' matchers itself, and must hold an
// index in a source exactly from that source's first Add of a filter the
// index posts on, across compactions; the other has every source moved
// to an index as soon as it exists (EnableIndex). The paper shape is
// one-sided, so the first scans it and the second keeps it in its
// index's rest scan; the fanout shape (the fanout_match workload's range
// plus a one-sided rider) is posted under its range; the mixed shape
// puts rare ranges and equalities beside one-sided, match-all and !=
// filters, so sources start on a scan and move.
func TestTableChurnEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		steps  int
		filter func(r *rand.Rand) string
	}{
		{"paper", 2000, func(r *rand.Rand) string {
			return fmt.Sprintf("A1 < %.2f && A2 < %.2f", 10*r.Float64(), 10*r.Float64())
		}},
		{"fanout", 4000, func(r *rand.Rand) string {
			a, w := 10*r.Float64(), []float64{0.04, 0.5, 3}[r.Intn(3)]
			return fmt.Sprintf("A1 > %.3f && A1 < %.3f && A2 < %.2f", a, a+w, 10*r.Float64())
		}},
		{"mixed", 4000, func(r *rand.Rand) string {
			switch a := 10 * r.Float64(); r.Intn(16) {
			case 0:
				return fmt.Sprintf("A1 > %.3f && A1 < %.3f && A2 < %.2f", a, a+1, 10*r.Float64())
			case 1:
				return fmt.Sprintf("K == %d && A2 >= %.2f", r.Intn(4), a)
			case 2, 3:
				return "true"
			case 4, 5:
				return fmt.Sprintf("K != %d && A1 < %.2f", r.Intn(4), a)
			case 6, 7:
				return fmt.Sprintf("A1 >= %.2f", a)
			default:
				return fmt.Sprintf("A1 < %.2f && A2 <= %.2f", a, 10*r.Float64())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tableChurnEquivalence(t, tc.steps, tc.filter) })
	}
}

func tableChurnEquivalence(t *testing.T, steps int, mkFilter func(*rand.Rand) string) {
	r := rand.New(rand.NewSource(9))
	chosen, forced := NewTable(0), NewTable(0)
	live := map[msg.SubID]*msg.Subscription{}
	nextID := msg.SubID(0)
	sources := []msg.NodeID{0, 1}
	// posted[src]: chosen's source src has been given a filter the index
	// posts since it was created.
	posted := map[msg.NodeID]bool{}
	indexedSteps, scannedSteps := 0, 0

	// matchers asserts the index rule on every source of both tables.
	matchers := func(step int) {
		for _, src := range sources {
			st := chosen.bySource[src]
			if st == nil {
				posted[src] = false
				continue
			}
			if (st.ix != nil) != posted[src] {
				t.Fatalf("step %d: source %d holds an index = %v, posted filter added = %v", step, src, st.ix != nil, posted[src])
			}
			if st.ix != nil {
				indexedSteps++
			} else {
				scannedSteps++
			}
			if st := forced.bySource[src]; st == nil || st.ix == nil {
				t.Fatalf("step %d: forced source %d lost its index", step, src)
			}
		}
	}
	check := func(step int) {
		matched := 0
		for trial := 0; trial < 5; trial++ {
			m := &msg.Message{
				Ingress: sources[r.Intn(len(sources))],
				Attrs: msg.NumAttrs(map[string]float64{
					"A1": 10 * r.Float64(), "A2": 10 * r.Float64(), "K": float64(r.Intn(4)),
				}),
			}
			var want []*Entry
			if st := chosen.bySource[m.Ingress]; st != nil {
				for _, e := range st.entries {
					if e != nil && e.Sub.Filter.Match(&m.Attrs) {
						want = append(want, e)
					}
				}
			}
			got := chosen.Match(m)
			matched += len(got)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: table matched %d entries, its filters %d (or in another order)", step, len(got), len(want))
			}
			if !slices.Equal(forced.Match(m), want) {
				t.Fatalf("step %d: indexed table disagrees with the filters on entries or order", step)
			}
		}
		if step == steps && matched == 0 {
			t.Fatalf("no publication matched anything: the check is vacuous")
		}
	}

	remove := func(step int) {
		for id := range live {
			if n := chosen.RemoveSub(id); n != len(sources) {
				t.Fatalf("step %d: RemoveSub(%d) removed %d entries, want %d", step, id, n, len(sources))
			}
			forced.RemoveSub(id)
			delete(live, id)
			return
		}
	}
	for step := 0; step < steps; step++ {
		switch {
		case step%1000 == 500:
			// A purge leaves more tombstones than live slots in every
			// source, which forces compactSource.
			for n := len(live) * 3 / 4; n > 0; n-- {
				remove(step)
			}
		case step%1000 == 750:
			// Emptying the table deletes its sources: the next Add
			// creates each afresh, on a scan.
			for len(live) > 0 {
				remove(step)
			}
		case r.Intn(3) > 0 || len(live) == 0:
			s := churnSub(nextID, 5, mkFilter(r))
			nextID++
			live[s.ID] = s
			for _, src := range sources {
				e := &Entry{Sub: s, Source: src, Next: 5}
				if chosen.bySource[src] == nil {
					posted[src] = false
				}
				posted[src] = posted[src] || filter.Posts(s.Filter)
				chosen.Add(e)
				forced.Add(e)
			}
			forced.EnableIndex()
		default:
			remove(step)
		}
		matchers(step)
		if step%250 == 0 {
			check(step)
		}
	}
	check(steps)
	if chosen.Len() != len(live)*len(sources) {
		t.Fatalf("Len = %d, want %d", chosen.Len(), len(live)*len(sources))
	}
	if st := chosen.bySource[0]; len(st.entries) >= int(nextID) {
		t.Fatalf("source 0 holds %d slots after %d installs: compactSource never ran", len(st.entries), nextID)
	}
	t.Logf("source-steps on an index %d, on a scan %d", indexedSteps, scannedSteps)
}

// TestInstallRemoveSubAll drives the churn helpers over a built overlay:
// Installer.Install must add exactly the entries the bulk build would have, and
// RemoveSubAll must undo them.
func TestInstallRemoveSubAll(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	static := churnSub(0, ov.Edges[0], "A1 < 5")
	tables, err := Build(ov, []*msg.Subscription{static}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		tb.EnableIndex()
	}
	before := Stats(tables).TotalEntries

	churner := churnSub(7, ov.Edges[1], "A1 < 8")
	installed := NewInstaller(ov, Options{}).Install(tables, churner)
	if installed == 0 {
		t.Fatal("Installer.Install installed nothing")
	}
	if got := Stats(tables).TotalEntries; got != before+installed {
		t.Fatalf("entries = %d, want %d", got, before+installed)
	}
	// The churned-in subscription must now match at its edge broker.
	m := &msg.Message{Ingress: ov.Ingress[0], Attrs: msg.NumAttrs(map[string]float64{"A1": 6, "A2": 1})}
	found := false
	for _, e := range tables[churner.Edge].Match(m) {
		if e.Sub.ID == churner.ID && e.Local() {
			found = true
		}
	}
	if !found {
		t.Fatal("installed subscription not matched at its edge broker")
	}

	if removed := RemoveSubAll(tables, churner.ID); removed != installed {
		t.Fatalf("RemoveSubAll removed %d, want %d", removed, installed)
	}
	if got := Stats(tables).TotalEntries; got != before {
		t.Fatalf("entries = %d after removal, want %d", got, before)
	}
}

// TestInstallerCachesPaths: an installer computes each (ingress, edge)
// path set once — later calls return the same shared slices and
// allocate nothing — single-path and multipath alike, and the cached set
// is the one a fresh installer computes.
func TestInstallerCachesPaths(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		ins := NewInstaller(ov, Options{Multipath: k})
		src, edge := ov.Ingress[0], ov.Edges[1]
		first := ins.Paths(src, edge)
		if len(first) == 0 {
			t.Fatalf("k=%d: no path %d→%d", k, src, edge)
		}
		if again := ins.Paths(src, edge); &again[0] != &first[0] {
			t.Errorf("k=%d: second Paths call recomputed the set", k)
		}
		if n := testing.AllocsPerRun(50, func() { ins.Paths(src, edge) }); n != 0 {
			t.Errorf("k=%d: cached Paths made %v allocs, want 0", k, n)
		}
		fresh := NewInstaller(ov, Options{Multipath: k}).Paths(src, edge)
		if fmt.Sprint(fresh) != fmt.Sprint(first) {
			t.Errorf("k=%d: cached %v, fresh installer %v", k, first, fresh)
		}
	}
}

// TestMatchAppendWithConcurrentMutation is the readers-writer contract
// under -race: matchers holding the read lock (each with private
// scratch, as live read loops do) run concurrently with a mutator
// that takes the write lock to churn subscriptions. Every match must
// return a consistent result for the population it observed — through
// an index, and through the bound-column scan of a source without one
// (what plan-deployed live brokers run on their read loops).
func TestMatchAppendWithConcurrentMutation(t *testing.T) {
	t.Run("indexed", func(t *testing.T) { matchDuringMutation(t, true) })
	t.Run("scan", func(t *testing.T) { matchDuringMutation(t, false) })
}

func matchDuringMutation(t *testing.T, indexed bool) {
	var mu sync.RWMutex
	tb := NewTable(0)
	// Static population that must always match. Its one-sided filter
	// leaves the source on its scan; EnableIndex moves it to an index,
	// which it keeps through every later Add, removal and compaction.
	static := churnSub(0, 5, "A1 < 100")
	tb.Add(&Entry{Sub: static, Source: 0, Next: 5})
	if indexed {
		tb.EnableIndex()
	}
	onIndex := func() {
		t.Helper()
		if got := tb.bySource[0].ix != nil; got != indexed {
			t.Fatalf("source 0 on an index: %v, want %v", got, indexed)
		}
	}
	onIndex()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
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
				buf = tb.MatchAppendWith(&scratch, m, buf[:0])
				ok := false
				for _, e := range buf {
					if e.Sub.ID == static.ID {
						ok = true
					}
				}
				mu.RUnlock()
				if !ok {
					t.Error("static subscription vanished from a concurrent match")
					return
				}
			}
		}()
	}

	// Mutator: churn 5000 subscribe/unsubscribe pairs through the table.
	for i := 0; i < 5000; i++ {
		id := msg.SubID(1 + i%37)
		src := fmt.Sprintf("A1 < %d", i%100)
		if i%500 == 0 {
			// A filter on a never-seen attribute: its name is interned
			// while the matchers resolve messages against the same table.
			src = fmt.Sprintf("A1 < %d && fresh%d_%v >= 0", i%100, i, indexed)
		}
		s := churnSub(id, 5, src)
		mu.Lock()
		if tb.RemoveSub(id) == 0 {
			tb.Add(&Entry{Sub: s, Source: 0, Next: 5})
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	onIndex()
}
