package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// chainOverlay builds 0 -(50)- 1 -(70)- 2 with ingress {0} and edges {2}.
func chainOverlay(t *testing.T) *topology.Overlay {
	t.Helper()
	g := topology.NewGraph(3)
	if err := g.AddLink(0, 1, stats.Normal{Mean: 50, Sigma: 20}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2, stats.Normal{Mean: 70, Sigma: 20}); err != nil {
		t.Fatal(err)
	}
	return &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0},
		Edges:   []msg.NodeID{2},
	}
}

func sub(id msg.SubID, edge msg.NodeID, src string) *msg.Subscription {
	return &msg.Subscription{ID: id, Edge: edge, Filter: filter.MustParse(src),
		Deadline: 10 * vtime.Second, Price: 1}
}

func TestBuildChainResidualStats(t *testing.T) {
	ov := chainOverlay(t)
	s := sub(1, 2, "A1 < 5")
	tables, err := Build(ov, []*msg.Subscription{s}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables for %d brokers, want 3", len(tables))
	}

	// At the ingress: 2 hops remain, rate = N(120, sqrt(800)).
	e0 := tables[0].Entries(0)
	if len(e0) != 1 {
		t.Fatalf("broker 0 entries = %d, want 1", len(e0))
	}
	if e0[0].Next != 1 || e0[0].Hops != 2 {
		t.Errorf("broker 0: next=%d hops=%d, want 1/2", e0[0].Next, e0[0].Hops)
	}
	if e0[0].Rate.Mean != 120 || math.Abs(e0[0].Rate.Sigma-math.Sqrt(800)) > 1e-12 {
		t.Errorf("broker 0 rate = %v", e0[0].Rate)
	}

	// At the middle broker: 1 hop remains, rate = N(70, 20).
	e1 := tables[1].Entries(0)
	if len(e1) != 1 || e1[0].Next != 2 || e1[0].Hops != 1 {
		t.Fatalf("broker 1 entry wrong: %+v", e1)
	}
	if e1[0].Rate.Mean != 70 || e1[0].Rate.Sigma != 20 {
		t.Errorf("broker 1 rate = %v", e1[0].Rate)
	}

	// At the edge broker: local delivery, 0 hops, zero rate.
	e2 := tables[2].Entries(0)
	if len(e2) != 1 || !e2[0].Local() || e2[0].Hops != 0 {
		t.Fatalf("broker 2 entry wrong: %+v", e2)
	}
	if e2[0].Rate.Mean != 0 || e2[0].Rate.Sigma != 0 {
		t.Errorf("edge residual rate = %v, want zero", e2[0].Rate)
	}
}

func TestBuildMatchRespectsIngressAndFilter(t *testing.T) {
	// Two ingresses with different best paths to the same edge.
	//   0 --40-- 2 --40-- 4 (edge)
	//   1 --40-- 3 --40-- 4
	// plus cross links 0-3 and 1-2 at cost 90 (not chosen).
	g := topology.NewGraph(5)
	for _, l := range [][3]float64{{0, 2, 40}, {2, 4, 40}, {1, 3, 40}, {3, 4, 40}, {0, 3, 90}, {1, 2, 90}} {
		if err := g.AddLink(msg.NodeID(l[0]), msg.NodeID(l[1]), stats.Normal{Mean: l[2], Sigma: 20}); err != nil {
			t.Fatal(err)
		}
	}
	ov := &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0, 1}, Edges: []msg.NodeID{4}}
	s := sub(7, 4, "A1 < 5")
	tables, err := Build(ov, []*msg.Subscription{s}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Broker 2 routes only source 0; broker 3 only source 1.
	if n := len(tables[2].Entries(0)); n != 1 {
		t.Errorf("broker 2 source-0 entries = %d, want 1", n)
	}
	if n := len(tables[2].Entries(1)); n != 0 {
		t.Errorf("broker 2 source-1 entries = %d, want 0", n)
	}
	if n := len(tables[3].Entries(1)); n != 1 {
		t.Errorf("broker 3 source-1 entries = %d, want 1", n)
	}

	// Matching respects attributes and ingress.
	match := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 3})}
	if got := tables[2].Match(match); len(got) != 1 {
		t.Errorf("match at broker 2 = %d entries, want 1", len(got))
	}
	noMatch := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 7})}
	if got := tables[2].Match(noMatch); len(got) != 0 {
		t.Errorf("non-matching message matched %d entries", len(got))
	}
	wrongSource := &msg.Message{Ingress: 1, Attrs: msg.NumAttrs(map[string]float64{"A1": 3})}
	if got := tables[2].Match(wrongSource); len(got) != 0 {
		t.Errorf("wrong-ingress message matched %d entries at broker 2", len(got))
	}
}

func TestBuildRejectsNonEdgeSubscriber(t *testing.T) {
	ov := chainOverlay(t)
	bad := sub(1, 1, "A1 < 5") // broker 1 is not in ov.Edges
	if _, err := Build(ov, []*msg.Subscription{bad}, Options{}); err == nil {
		t.Error("subscription at non-edge broker should fail")
	}
}

func TestBuildRejectsUnreachableEdge(t *testing.T) {
	g := topology.NewGraph(3)
	_ = g.AddLink(0, 1, stats.Normal{Mean: 50, Sigma: 20})
	ov := &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{2}}
	s := sub(1, 2, "A1 < 5")
	if _, err := Build(ov, []*msg.Subscription{s}, Options{}); err == nil {
		t.Error("unreachable edge should fail")
	}
}

func TestBuildPaperTopologyCoverage(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// 10 subscribers per edge broker, as in the paper.
	var subs []*msg.Subscription
	id := msg.SubID(0)
	for _, e := range ov.Edges {
		for j := 0; j < 10; j++ {
			subs = append(subs, sub(id, e, "A1 < 5 && A2 < 5"))
			id++
		}
	}
	tables, err := Build(ov, subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := Stats(tables)
	if cs.Brokers != 32 {
		t.Errorf("brokers = %d, want 32", cs.Brokers)
	}
	// Every (ingress, sub) pair installs >= 2 entries (path length >= 2
	// brokers: ingress..edge across 4 layers = 4 brokers), so:
	minEntries := 4 * len(subs) * 2
	if cs.TotalEntries < minEntries {
		t.Errorf("total entries = %d, want >= %d", cs.TotalEntries, minEntries)
	}
	// Each edge broker holds exactly one local entry per (ingress, local
	// subscriber): 4 * 10.
	for _, e := range ov.Edges {
		locals := 0
		for _, src := range tables[e].Sources() {
			for _, entry := range tables[e].Entries(src) {
				if entry.Local() {
					locals++
					if entry.Hops != 0 || entry.Rate.Mean != 0 {
						t.Errorf("local entry with nonzero residual: %+v", entry)
					}
				}
			}
		}
		if locals != 40 {
			t.Errorf("edge %d local entries = %d, want 40", e, locals)
		}
	}
}

func TestResidualMonotonicAlongPath(t *testing.T) {
	// Along any path, Hops and residual mean decrease strictly.
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	s := sub(1, ov.Edges[0], "true")
	tables, err := Build(ov, []*msg.Subscription{s}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := ov.Ingress[0]
	path, ok := ov.Graph.Path(src, ov.Edges[0])
	if !ok {
		t.Fatal("no path")
	}
	prevHops, prevMean := int32(1<<30), math.Inf(1)
	for _, b := range path {
		var entry *Entry
		for _, e := range tables[b].Entries(src) {
			if e.Sub.ID == 1 {
				entry = e
				break
			}
		}
		if entry == nil {
			t.Fatalf("broker %d missing entry", b)
		}
		if entry.Hops >= prevHops || entry.Rate.Mean >= prevMean {
			t.Errorf("residual not decreasing at broker %d: hops %d->%d mean %v->%v",
				b, prevHops, entry.Hops, prevMean, entry.Rate.Mean)
		}
		prevHops, prevMean = entry.Hops, entry.Rate.Mean
	}
	if prevHops != 0 {
		t.Errorf("path should end at 0 hops, got %d", prevHops)
	}
}

// groupByNext is the Grouper's oracle: it buckets matched entries by
// next hop, local deliveries under msg.None, bucket contents in Match
// order and bucket keys sorted.
func groupByNext(entries []*Entry) (hops []msg.NodeID, groups map[msg.NodeID][]*Entry) {
	groups = make(map[msg.NodeID][]*Entry)
	for _, e := range entries {
		if _, ok := groups[e.Next]; !ok {
			hops = append(hops, e.Next)
		}
		groups[e.Next] = append(groups[e.Next], e)
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	return hops, groups
}

func TestGroupByNext(t *testing.T) {
	e1 := &Entry{Next: 5, Sub: sub(1, 2, "true")}
	e2 := &Entry{Next: 3, Sub: sub(2, 2, "true")}
	e3 := &Entry{Next: 5, Sub: sub(3, 2, "true")}
	e4 := &Entry{Next: msg.None, Sub: sub(4, 2, "true")}
	hops, groups := groupByNext([]*Entry{e1, e2, e3, e4})
	if len(hops) != 3 {
		t.Fatalf("hops = %v, want 3 groups", hops)
	}
	if hops[0] != msg.None || hops[1] != 3 || hops[2] != 5 {
		t.Errorf("hops order = %v, want [-1 3 5]", hops)
	}
	if len(groups[5]) != 2 || groups[5][0] != e1 || groups[5][1] != e3 {
		t.Error("group 5 should preserve order e1,e3")
	}
	if len(groups[msg.None]) != 1 {
		t.Error("local group missing")
	}
}

func TestMultipathInstallsAlternates(t *testing.T) {
	// Diamond: two disjoint paths 0-1-3 and 0-2-3.
	g := topology.NewGraph(4)
	_ = g.AddLink(0, 1, stats.Normal{Mean: 50, Sigma: 20})
	_ = g.AddLink(1, 3, stats.Normal{Mean: 50, Sigma: 20})
	_ = g.AddLink(0, 2, stats.Normal{Mean: 60, Sigma: 20})
	_ = g.AddLink(2, 3, stats.Normal{Mean: 60, Sigma: 20})
	ov := &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{3}}
	s := sub(1, 3, "true")
	tables, err := Build(ov, []*msg.Subscription{s}, Options{Multipath: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Ingress has entries for both paths with distinct PathIDs.
	e0 := tables[0].Entries(0)
	if len(e0) != 2 {
		t.Fatalf("ingress entries = %d, want 2", len(e0))
	}
	if e0[0].PathID == e0[1].PathID {
		t.Error("path ids should differ")
	}
	nexts := map[msg.NodeID]bool{e0[0].Next: true, e0[1].Next: true}
	if !nexts[1] || !nexts[2] {
		t.Errorf("multipath nexts = %v, want brokers 1 and 2", nexts)
	}
	// Both intermediate brokers got one entry each.
	if len(tables[1].Entries(0)) != 1 || len(tables[2].Entries(0)) != 1 {
		t.Error("intermediate brokers should each carry one path")
	}
	// Edge has two local entries (one per path).
	if len(tables[3].Entries(0)) != 2 {
		t.Errorf("edge entries = %d, want 2", len(tables[3].Entries(0)))
	}
}

func TestBuildWithRateOverride(t *testing.T) {
	ov := chainOverlay(t)
	s := sub(1, 2, "true")
	// Beliefs double the true means.
	beliefs := func(from, to msg.NodeID) stats.Normal {
		r, _ := ov.Graph.Rate(from, to)
		return stats.Normal{Mean: 2 * r.Mean, Sigma: r.Sigma}
	}
	tables, err := Build(ov, []*msg.Subscription{s}, Options{Rates: beliefs})
	if err != nil {
		t.Fatal(err)
	}
	e0 := tables[0].Entries(0)[0]
	if e0.Rate.Mean != 240 {
		t.Errorf("believed residual mean = %v, want 240", e0.Rate.Mean)
	}
}

func TestEnableIndexEquivalence(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var subs []*msg.Subscription
	id := msg.SubID(0)
	s := stats.NewStream(21)
	for _, e := range ov.Edges {
		for j := 0; j < 10; j++ {
			f := filter.And(
				filter.Lt("A1", s.Uniform(0, 10)),
				filter.Lt("A2", s.Uniform(0, 10)),
			)
			subs = append(subs, &msg.Subscription{ID: id, Edge: e, Filter: f,
				Deadline: 10 * vtime.Second, Price: 1})
			id++
		}
	}
	linear, err := Build(ov, subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := Build(ov, subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range indexed {
		tb.EnableIndex()
	}
	for trial := 0; trial < 200; trial++ {
		m := &msg.Message{
			Ingress: ov.Ingress[trial%len(ov.Ingress)],
			Attrs: msg.NumAttrs(map[string]float64{
				"A1": s.Uniform(0, 10), "A2": s.Uniform(0, 10),
			}),
		}
		for bid := 0; bid < ov.Graph.N(); bid++ {
			a := linear[msg.NodeID(bid)].Match(m)
			b := indexed[msg.NodeID(bid)].Match(m)
			if len(a) != len(b) {
				t.Fatalf("broker %d: linear %d entries, indexed %d", bid, len(a), len(b))
			}
			for i := range a {
				if a[i].Sub.ID != b[i].Sub.ID || a[i].Next != b[i].Next {
					t.Fatalf("broker %d: order/content mismatch at %d", bid, i)
				}
			}
		}
	}
}

func TestRemoveSub(t *testing.T) {
	ov := chainOverlay(t)
	s1 := sub(1, 2, "A1 < 5")
	s2 := sub(2, 2, "A1 < 9")
	tables, err := Build(ov, []*msg.Subscription{s1, s2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		before := tb.Len()
		removed := tb.RemoveSub(1)
		if removed == 0 {
			t.Fatalf("broker %d: nothing removed", tb.Broker())
		}
		if tb.Len() != before-removed {
			t.Fatalf("broker %d: Len %d after removing %d from %d",
				tb.Broker(), tb.Len(), removed, before)
		}
		// Sub 2 must survive and still match.
		m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 7})}
		got := tb.Match(m)
		if len(got) != 1 || got[0].Sub.ID != 2 {
			t.Fatalf("broker %d: post-removal match = %v", tb.Broker(), got)
		}
		// Removing again is a no-op.
		if tb.RemoveSub(1) != 0 {
			t.Fatal("second removal should remove nothing")
		}
	}
}

func TestRemoveSubUpdatesIndex(t *testing.T) {
	tb := NewTable(1)
	tb.Add(&Entry{Sub: sub(1, 2, "A1 < 5"), Source: 0, Next: 2})
	tb.Add(&Entry{Sub: sub(2, 2, "A1 < 5"), Source: 0, Next: 2})
	tb.EnableIndex()
	tb.RemoveSub(1)
	if tb.bySource[0].ix == nil {
		t.Fatal("RemoveSub dropped the index")
	}
	m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 1})}
	got := tb.Match(m)
	if len(got) != 1 || got[0].Sub.ID != 2 {
		t.Fatalf("match after indexed removal = %v", got)
	}
}

func TestEnableIndexFollowedByAdd(t *testing.T) {
	tb := NewTable(1)
	tb.Add(&Entry{Sub: sub(1, 2, "A1 < 5"), Source: 0, Next: 2})
	tb.EnableIndex()
	tb.Add(&Entry{Sub: sub(2, 2, "A1 < 9"), Source: 0, Next: 2})
	m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 7})}
	// The index absorbs the Add in place and must see the new entry.
	if got := tb.Match(m); len(got) != 1 || got[0].Sub.ID != 2 {
		t.Fatalf("match after post-index Add = %v", got)
	}
}

func TestEntryString(t *testing.T) {
	e := &Entry{Sub: sub(1, 2, "true"), Source: 0, Next: 3, Hops: 2,
		Rate: stats.Normal{Mean: 100, Sigma: 28}}
	if e.String() == "" {
		t.Error("empty String()")
	}
	local := &Entry{Sub: sub(1, 2, "true"), Source: 0, Next: msg.None}
	if local.String() == "" || !local.Local() {
		t.Error("local entry string/flag")
	}
}

// TestGrouperMatchesGroupByNext proves the reusable Grouper reproduces
// groupByNext exactly — sorted hops, buckets in input order — across
// randomized entry streams and repeated (buffer-reusing) calls.
func TestGrouperMatchesGroupByNext(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var g Grouper
	for trial := 0; trial < 200; trial++ {
		entries := make([]*Entry, r.Intn(30))
		for i := range entries {
			next := msg.NodeID(r.Intn(5))
			if r.Intn(5) == 0 {
				next = msg.None
			}
			entries[i] = &Entry{
				Sub:  &msg.Subscription{ID: msg.SubID(i)},
				Next: next,
			}
		}
		wantHops, wantGroups := groupByNext(entries)
		gotHops, gotBuckets := g.Group(entries)
		if len(gotHops) != len(wantHops) {
			t.Fatalf("trial %d: %d hops, want %d", trial, len(gotHops), len(wantHops))
		}
		for k, hop := range gotHops {
			if hop != wantHops[k] {
				t.Fatalf("trial %d: hop[%d] = %v, want %v", trial, k, hop, wantHops[k])
			}
			want := wantGroups[hop]
			if len(gotBuckets[k]) != len(want) {
				t.Fatalf("trial %d: bucket %v has %d entries, want %d",
					trial, hop, len(gotBuckets[k]), len(want))
			}
			for i := range want {
				if gotBuckets[k][i] != want[i] {
					t.Fatalf("trial %d: bucket %v order differs at %d", trial, hop, i)
				}
			}
		}
	}
}

// TestMatchAppendReusesBuffer pins the scratch-buffer contract brokers
// rely on: appending into a recycled buffer yields the same entries as
// a fresh Match, with no steady-state allocations on the indexed path.
func TestMatchAppendReusesBuffer(t *testing.T) {
	sub := func(id msg.SubID, src string) *msg.Subscription {
		return &msg.Subscription{ID: id, Edge: 9, Filter: filter.MustParse(src)}
	}
	tb := NewTable(1)
	tb.Add(&Entry{Sub: sub(1, "A1 < 5"), Source: 0, Next: 2})
	tb.Add(&Entry{Sub: sub(2, "A1 < 8"), Source: 0, Next: 3})
	tb.Add(&Entry{Sub: sub(3, "A1 > 7"), Source: 0, Next: 2})
	m := &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 4})}

	for _, indexed := range []bool{false, true} {
		if indexed {
			tb.EnableIndex()
		}
		want := tb.Match(m)
		var buf []*Entry
		buf = tb.MatchAppend(m, buf[:0])
		buf = tb.MatchAppend(m, buf[:0]) // reuse
		if len(buf) != len(want) {
			t.Fatalf("indexed=%v: MatchAppend = %d entries, want %d", indexed, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("indexed=%v: entry %d differs", indexed, i)
			}
		}
		if indexed {
			allocs := testing.AllocsPerRun(100, func() { buf = tb.MatchAppend(m, buf[:0]) })
			if allocs != 0 {
				t.Errorf("indexed MatchAppend allocates %v objects per run, want 0", allocs)
			}
		}
	}
}

// TestEntrySize pins routing.Entry at 56 bytes: Hops and PathID are
// adjacent int32s, which pays for the scan's bound columns (8 bytes a
// row on the paper's two-attribute filters).
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 56 {
		t.Fatalf("Entry is %d bytes, want 56", got)
	}
}

// resolvedAppendLinear is the linear match as it was before the scan's
// bound columns: every live slot's filter evaluated through
// MatchResolved, in slot order. It is the oracle the scan must
// reproduce entry for entry.
func resolvedAppendLinear(st *sourceState, s *filter.MatchScratch, m *msg.Message, buf []*Entry) []*Entry {
	s.Resolve(&m.Attrs)
	for _, e := range st.entries {
		if e != nil && e.Sub.Filter.MatchResolved(s, &m.Attrs) {
			buf = append(buf, e)
		}
	}
	return buf
}

// TestScanMatchDuringMutation: four matchers run MatchAppendWith on a
// non-indexed table under the read lock while a writer adds entries,
// removes subscriptions past the compaction threshold and promotes
// group members under the write lock. Every match must equal the
// per-row MatchResolved loop over the same table state, in order.
func TestScanMatchDuringMutation(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	filterOf := func() string {
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("A1 > %d && A1 <= %d", r.Intn(5), 5+r.Intn(5))
		case 1:
			return fmt.Sprintf("A1 < %d || A2 == %d", r.Intn(10), r.Intn(10))
		default:
			return fmt.Sprintf("A1 < %d && A2 >= %d", r.Intn(11), r.Intn(11))
		}
	}
	tb := NewTable(0)
	next := msg.SubID(1)
	filters := map[msg.SubID]*filter.Filter{}
	add := func() msg.SubID {
		id := next
		next++
		s := sub(id, 9, filterOf())
		filters[id] = s.Filter
		tb.Add(&Entry{Sub: s, Source: 0, Next: 2})
		return id
	}
	var live []msg.SubID
	for i := 0; i < 100; i++ {
		live = append(live, add())
	}
	// Values on the bounds, between them, and messages the columns
	// cannot decide (A2 absent, A2 a string).
	var msgs []*msg.Message
	for a1 := 0.0; a1 <= 10; a1 += 0.5 {
		msgs = append(msgs, &msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": a1, "A2": 10 - a1})})
	}
	msgs = append(msgs,
		&msg.Message{Ingress: 0, Attrs: msg.NumAttrs(map[string]float64{"A1": 3})},
		&msg.Message{Ingress: 0, Attrs: msg.NewAttrSet(msg.Attr{Name: "A1", Val: filter.Num(3)}, msg.Attr{Name: "A2", Val: filter.Str("x")})})

	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s, ref filter.MatchScratch
			var got, want []*Entry
			for k := w; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				m := msgs[k%len(msgs)]
				mu.RLock()
				got = tb.MatchAppendWith(&s, m, got[:0])
				want = want[:0]
				if st := tb.bySource[0]; st != nil {
					want = resolvedAppendLinear(st, &ref, m, want)
				}
				mu.RUnlock()
				if !slices.Equal(got, want) {
					t.Errorf("message %v: scan matched %d entries, MatchResolved %d", m.Attrs, len(got), len(want))
					return
				}
			}
		}(w)
	}

	compactions, promotions := 0, 0
	for i := 0; i < 3000; i++ {
		mu.Lock()
		switch {
		case i%50 < 20 || len(live) < 40:
			live = append(live, add())
		case i%50 < 45:
			j := r.Intn(len(live))
			before := len(tb.bySource[0].entries)
			tb.RemoveSub(live[j])
			live = append(live[:j], live[j+1:]...)
			if st := tb.bySource[0]; st != nil && len(st.entries) < before-1 {
				compactions++
			}
		default:
			// An exact duplicate joins the group and takes over.
			j := r.Intn(len(live))
			tb.Attach(live[j], &msg.Subscription{ID: next, Edge: 9, Filter: filters[live[j]]})
			filters[next] = filters[live[j]]
			next++
			if p := tb.Promote(live[j]); p != nil {
				live[j] = p.ID
				promotions++
			}
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if compactions == 0 || promotions == 0 {
		t.Fatalf("writer ran %d compactions and %d promotions, want both", compactions, promotions)
	}
}
