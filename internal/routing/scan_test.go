package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/topology"
	"bdps/internal/workload"
)

// refAppendLinear is the table scan as it was before filters carried
// programs, kept verbatim as the reference the program scan must
// reproduce: every live slot, in slot order, through Filter.Match.
func refAppendLinear(st *sourceState, m *msg.Message, buf []*Entry) []*Entry {
	for _, e := range st.entries {
		if e != nil && e.Sub.Filter.Match(&m.Attrs) {
			buf = append(buf, e)
		}
	}
	return buf
}

// scanFilter draws from the shapes a scanned source holds: the paper's
// numeric conjunctions (lowered) and disjunctions, !=, string predicates
// and wildcards — none of which the index posts, so the source stays on
// its scan.
func scanFilter(r *rand.Rand) string {
	switch r.Intn(8) {
	case 0:
		return fmt.Sprintf("A1 < %d || A2 > %d", r.Intn(10), r.Intn(10))
	case 1:
		return fmt.Sprintf("A1 != %d", r.Intn(10))
	case 2:
		return "tag == 'hot' || A1 < 5"
	case 3:
		return "true"
	default:
		return fmt.Sprintf("A1 < %d && A2 >= %d", r.Intn(11), r.Intn(11))
	}
}

// TestScanEquivalentToFilterMatch churns a scanned table through
// Add, RemoveSub and the compactions they force, and checks after every
// step that the program scan returns the reference scan's entries — the
// same pointers in the same order — for every ingress.
func TestScanEquivalentToFilterMatch(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	tb := NewTable(0)
	var live []msg.SubID
	nextID := msg.SubID(0)
	var scratch filter.MatchScratch
	var got, want []*Entry
	compactions := 0
	for step := 0; step < 4000; step++ {
		// Grow to a few hundred entries, then remove in long runs so
		// tombstones outnumber live slots and compactSource fires.
		grow := len(live) < 40 || (step/300)%2 == 0 && len(live) < 400
		if grow {
			sub := churnSub(nextID, 5, scanFilter(r))
			nextID++
			for src := msg.NodeID(0); src < 3; src++ {
				if src == 0 || r.Intn(2) == 0 {
					tb.Add(&Entry{Sub: sub, Source: src, Next: 5, Hops: 1})
				}
			}
			live = append(live, sub.ID)
		} else {
			i := r.Intn(len(live))
			before := len(tb.bySource[0].entries)
			if tb.RemoveSub(live[i]) == 0 {
				t.Fatalf("step %d: live subscription %d had no entries", step, live[i])
			}
			if st := tb.bySource[0]; st != nil && len(st.entries) < before {
				compactions++
			}
			live = append(live[:i], live[i+1:]...)
		}
		attrs := msg.NumAttrs(map[string]float64{"A1": float64(r.Intn(11)), "A2": float64(r.Intn(11))})
		if r.Intn(4) == 0 {
			attrs.Set("tag", filter.Str("hot"))
		}
		if r.Intn(6) == 0 {
			attrs.Set("A2", filter.Str("seven")) // a string where filters compare numbers
		}
		for src := msg.NodeID(0); src < 3; src++ {
			m := &msg.Message{Ingress: src, Attrs: attrs}
			got = tb.MatchAppendWith(&scratch, m, got[:0])
			want = want[:0]
			if st := tb.bySource[src]; st != nil {
				if st.ix != nil {
					t.Fatalf("step %d ingress %d: the source moved to an index", step, src)
				}
				want = refAppendLinear(st, m, want)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d ingress %d %v: scan matched %d entries, reference %d", step, src, attrs, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d ingress %d: entry %d is %v, reference %v", step, src, i, got[i], want[i])
				}
			}
			// The serial entry point scans through the table's own scratch.
			if serial := tb.MatchAppend(m, nil); len(serial) != len(want) {
				t.Fatalf("step %d ingress %d: MatchAppend matched %d entries, reference %d", step, src, len(serial), len(want))
			}
		}
	}
	if compactions == 0 {
		t.Fatal("the churn never forced a compaction")
	}
}

// TestBuildMatchesPerSubscriptionInstall pins the bulk build's slabs and
// shared routes to the definition they replace: installing every
// subscription on its own through EntryAt (what Installer.Install does)
// yields the same entries, field for field and rate bit for bit, in the
// same slot order, with the same back-references — single- and
// multi-path.
func TestBuildMatchesPerSubscriptionInstall(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	subs := (workload.Config{Scenario: msg.SSD, Seed: 3}).Subscriptions(ov.Edges)
	for _, k := range []int{1, 2} {
		opts := Options{Multipath: k}
		built, err := Build(ov, subs, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[msg.NodeID]*Table, ov.Graph.N())
		for id := 0; id < ov.Graph.N(); id++ {
			ref[msg.NodeID(id)] = NewTable(msg.NodeID(id))
		}
		// Install is subscription-major where Build is ingress-major; per
		// ingress both add in subscription order, which is all slot order
		// depends on.
		ins := NewInstaller(ov, opts)
		for _, sub := range subs {
			ins.Install(ref, sub)
		}
		for id, want := range ref {
			got := built[id]
			if got.Len() != want.Len() || len(got.bySource) != len(want.bySource) || len(got.bySub) != len(want.bySub) {
				t.Fatalf("k=%d broker %d: %d entries / %d sources / %d subscriptions, want %d / %d / %d", k, id,
					got.Len(), len(got.bySource), len(got.bySub), want.Len(), len(want.bySource), len(want.bySub))
			}
			for _, src := range want.Sources() {
				ge, we := got.Entries(src), want.Entries(src)
				if len(ge) != len(we) {
					t.Fatalf("k=%d broker %d ingress %d: %d entries, want %d", k, id, src, len(ge), len(we))
				}
				for i := range we {
					if *ge[i] != *we[i] {
						t.Fatalf("k=%d broker %d ingress %d slot %d: %+v, want %+v", k, id, src, i, *ge[i], *we[i])
					}
				}
				if cap(ge) != len(ge) {
					t.Errorf("k=%d broker %d ingress %d: entry list has capacity %d for %d entries", k, id, src, cap(ge), len(ge))
				}
			}
			for sid, wr := range want.bySub {
				gr := got.bySub[sid]
				if len(gr) != len(wr) {
					t.Fatalf("k=%d broker %d subscription %d: %d back-references, want %d", k, id, sid, len(gr), len(wr))
				}
				for i := range wr {
					if gr[i] != wr[i] {
						t.Fatalf("k=%d broker %d subscription %d: back-references %v, want %v", k, id, sid, gr, wr)
					}
				}
				if cap(gr) != len(gr) {
					t.Errorf("k=%d broker %d subscription %d: back-references have capacity %d for %d", k, id, sid, cap(gr), len(gr))
				}
			}
		}
		// A built table still churns like any other.
		victim := subs[len(subs)/2]
		if RemoveSubAll(built, victim.ID) != RemoveSubAll(ref, victim.ID) {
			t.Fatalf("k=%d: removal from the built tables differs from the reference", k)
		}
		if ins.Install(built, victim) != ins.Install(ref, victim) {
			t.Fatalf("k=%d: reinstall into the built tables differs from the reference", k)
		}
	}
}

// TestBuildPicksMatcherAsAdd: a bulk build gives each source the matcher
// the same subscriptions added one by one give it — an index where the
// source holds a filter the index posts, a scan elsewhere — and both
// match the same entries in the same order.
func TestBuildPicksMatcherAsAdd(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	subs := (workload.Config{Scenario: msg.SSD, Seed: 3}).Subscriptions(ov.Edges)
	for _, s := range subs {
		if s.Edge == ov.Edges[0] {
			a := 8 * r.Float64()
			s.Filter = filter.And(filter.Gt("A1", a), filter.Lt("A1", a+2), filter.Lt("A2", 10*r.Float64()))
		}
	}
	built, err := Build(ov, subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[msg.NodeID]*Table, ov.Graph.N())
	for id := 0; id < ov.Graph.N(); id++ {
		ref[msg.NodeID(id)] = NewTable(msg.NodeID(id))
	}
	ins := NewInstaller(ov, Options{})
	for _, sub := range subs {
		ins.Install(ref, sub)
	}
	indexed, scanned := 0, 0
	for id, want := range ref {
		for src, ws := range want.bySource {
			gs := built[id].bySource[src]
			if (gs.ix != nil) != (ws.ix != nil) {
				t.Fatalf("broker %d ingress %d: built index %v, added index %v", id, src, gs.ix != nil, ws.ix != nil)
			}
			if gs.ix != nil {
				indexed++
			} else {
				scanned++
			}
		}
	}
	if indexed == 0 || scanned == 0 {
		t.Fatalf("%d indexed and %d scanned sources: the build does not exercise both", indexed, scanned)
	}
	for trial := 0; trial < 200; trial++ {
		m := &msg.Message{
			Ingress: ov.Ingress[trial%len(ov.Ingress)],
			Attrs:   msg.NumAttrs(map[string]float64{"A1": 10 * r.Float64(), "A2": 10 * r.Float64()}),
		}
		for id, want := range ref {
			g, w := built[id].Match(m), want.Match(m)
			if len(g) != len(w) {
				t.Fatalf("broker %d: built table matched %d entries, added %d", id, len(g), len(w))
			}
			for i := range w {
				if *g[i] != *w[i] {
					t.Fatalf("broker %d: entry %d is %+v, want %+v", id, i, *g[i], *w[i])
				}
			}
		}
	}
}
