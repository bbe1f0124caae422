// Package routing implements the pub/sub routing protocol of §3.3 and the
// per-broker subscription table of §4.2.
//
// For every (ingress broker A, subscription s) pair the builder selects
// the single path from A to s's edge broker that minimizes the sum of mean
// link rates, and installs an entry at every broker along it. An entry
// stores the residual-path statistics the scheduling core needs: the next
// hop, the number of remaining intermediate brokers NN_p, and the residual
// path rate distribution N(μ_p, σ_p²). Entries are keyed by ingress
// because single-path routes from different publishers to the same
// subscriber may diverge in a mesh.
//
// A multi-path mode (the DCP-style alternative the paper contrasts with,
// §3.3) installs entries for up to K disjoint-prefix paths; edge brokers
// then deduplicate by message ID.
package routing

import (
	"fmt"
	"slices"
	"sort"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// Interface conformance: messages' attribute sets satisfy the index's
// iteration requirement. The pointer form is what the hot path uses —
// converting *AttrSet to an interface stores the pointer and does not
// allocate, where converting the value copies it to the heap per call.
var (
	_ filter.Iterable = msg.AttrSet{}
	_ filter.Iterable = (*msg.AttrSet)(nil)
)

// Entry is one subscription's routing state at one broker for one ingress.
//
// Hops and PathID are int32 and sit beside the two node ids, so the
// struct is 56 bytes (TestEntrySize): tables hold one per (subscription,
// ingress, path, broker on the path).
type Entry struct {
	Sub    *msg.Subscription
	Source msg.NodeID   // ingress broker this route applies to
	Next   msg.NodeID   // next hop toward the subscriber; msg.None = local
	Hops   int32        // NN_p: links (= downstream brokers) remaining
	PathID int32        // 0 for single-path; 0..K-1 in multi-path mode
	Rate   stats.Normal // residual path per-KB time TR_p ~ N(μ_p, σ_p²)
	// Relaxed, when > 0, is a renegotiated delay-bound floor (ms)
	// installed by topology repair: on a rerouted path where the original
	// bound is no longer feasible, the admission math relaxes it to the
	// cheapest feasible value, and brokers raise any applicable bound
	// below this floor to it.
	Relaxed vtime.Millis
	// Agg, when non-nil, marks this entry as a covering representative:
	// it stands for Agg.Refs concrete subscriptions (itself plus the
	// exact-duplicate members folded into it and the properly-covered
	// subscriptions masked behind it). All of one subscription's entries
	// in one table share the same Group. Nil on non-aggregated tables.
	Agg *Group
}

// Group is the shared covering-set record of one representative
// subscription in one table. Matching and the delay-bound accounting see
// the representative's entries only; at the edge broker, delivery fans
// out to Members as well (exact duplicates share the representative's
// delivery terms by construction, so one admission decision covers the
// set). Mutated only under the table's write lock.
type Group struct {
	// Refs counts the concrete subscriptions this entry stands for: the
	// representative, its Members, and the covered subscriptions whose
	// forwarding rides it.
	Refs int32
	// Members are the exact-duplicate subscriptions delivered alongside
	// the representative (populated on edge tables only).
	Members []*msg.Subscription
}

// Local reports whether the entry delivers to a subscriber attached to
// this broker.
func (e *Entry) Local() bool { return e.Next == msg.None }

// String implements fmt.Stringer.
func (e *Entry) String() string {
	next := "local"
	if !e.Local() {
		next = fmt.Sprintf("B%d", e.Next)
	}
	return fmt.Sprintf("sub %d src B%d via %s hops=%d rate=%s",
		e.Sub.ID, e.Source, next, e.Hops, e.Rate)
}

// Table is one broker's subscription table, built for churn: Add and
// RemoveSub are sublinear and keep each source's matcher current in
// place.
//
// Each source picks its matcher from its own filters. It starts on a
// scan, its entry filters lowered to bound columns (filter.Scan), and
// moves to a filter.Index on the first Add of a filter the index posts
// under an access predicate (an equality or a two-sided range,
// filter.Posts), which it then keeps: the index holds the filters it
// cannot post in a scan of its own, so it answers every filter. A table
// of one-sided or match-all filters thus scans, and one with selective
// filters follows the answer through postings.
//
// Concurrency contract (what the live node's read loops rely on): any
// number of matchers may run concurrently through MatchAppendWith, each
// with its own scratch, while mutators (Add, RemoveSub, EnableIndex)
// synchronize externally readers-writer style — mutation under the write
// lock, matching under the read lock.
type Table struct {
	broker   msg.NodeID
	bySource map[msg.NodeID]*sourceState
	size     int

	// bySub maps each subscription to its entry slots — the
	// back-references RemoveSub follows instead of scanning the table.
	bySub map[msg.SubID][]entryRef

	// grouped counts the live entries carrying a covering group (see
	// Distinct).
	grouped int

	// scratch backs the serial MatchAppend entry point; allocated on first
	// use, since brokers match through their own.
	scratch *filter.MatchScratch
}

// sourceState is one ingress's entry list. Slots are positional — the
// index and the scan emit positions — so RemoveSub tombstones a slot to
// nil instead of shifting; the list is compacted (and its index rebuilt
// in one batch) only when tombstones outnumber live entries. A source
// matches through its index ix once it has one, else through scan, the
// entry filters lowered to bound columns, row for slot (empty while ix
// is set).
type sourceState struct {
	entries []*Entry
	live    int
	ix      *filter.Index
	scan    filter.Scan
	// multi counts the subscriptions holding more than one live slot
	// here (multi-path routes that share this broker, or a repeated Add).
	multi int
}

// entryRef locates one entry slot of a subscription.
type entryRef struct {
	src msg.NodeID
	pos int32
}

// slotsIn counts a subscription's references into one source.
func slotsIn(refs []entryRef, src msg.NodeID) int {
	n := 0
	for _, r := range refs {
		if r.src == src {
			n++
		}
	}
	return n
}

// NewTable returns an empty table for the given broker.
func NewTable(broker msg.NodeID) *Table {
	return &Table{
		broker:   broker,
		bySource: make(map[msg.NodeID]*sourceState),
		bySub:    make(map[msg.SubID][]entryRef),
	}
}

// Broker returns the owning broker id.
func (t *Table) Broker() msg.NodeID { return t.broker }

// Add installs an entry: into the source's index in place when it has
// one (amortized sublinear; see filter.Index.Add), else as a row of the
// source's scan, which settle then trades for an index if the index
// posts the entry's filter.
func (t *Table) Add(e *Entry) {
	st, pos := t.add(e, nil, 0)
	if st.ix != nil {
		st.ix.Add(pos, e.Sub.Filter)
		return
	}
	st.scan.Add(e.Sub.Filter)
	st.settle(e.Sub.Filter)
}

// settle is the rule by which a source picks its matcher (see Table),
// applied to f, the filter of one of its live entries: a scanned source
// moves to an index, built in one batch, when the index posts f.
func (st *sourceState) settle(f *filter.Filter) {
	if st.ix == nil && filter.Posts(f) {
		st.rebuildIndex()
	}
}

// add is Add but for the matcher, which it leaves to the caller (Build
// copies a row lowered once per subscription); it returns the entry's
// source and slot. A bulk build that counted first passes the table's
// slab, and a subscription's first entry here then takes its refCap
// back-reference slots from it instead of growing a slice of its own.
func (t *Table) add(e *Entry, slab *tableSlab, refCap int) (*sourceState, int32) {
	st := t.bySource[e.Source]
	if st == nil {
		st = &sourceState{}
		t.bySource[e.Source] = st
	}
	pos := int32(len(st.entries))
	st.entries = append(st.entries, e)
	st.live++
	t.size++
	refs := t.bySub[e.Sub.ID]
	if refs == nil && slab != nil {
		n := len(slab.refs)
		slab.refs = slab.refs[:n+refCap]
		refs = slab.refs[n : n : n+refCap]
	}
	refs = append(refs, entryRef{src: e.Source, pos: pos})
	t.bySub[e.Sub.ID] = refs
	if slotsIn(refs, e.Source) == 2 {
		st.multi++
	}
	if e.Agg != nil {
		t.grouped++
	}
	return st, pos
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.size }

// RemoveSub deletes every entry of a subscription (all ingresses, all
// paths), returning how many entries were removed. The removal is
// sublinear — slots are found through per-subscription back-references
// and tombstoned, in the source's index or scan in place (no rebuild).
func (t *Table) RemoveSub(id msg.SubID) int {
	refs := t.bySub[id]
	if len(refs) == 0 {
		return 0
	}
	delete(t.bySub, id)
	removed := 0
	for i, r := range refs {
		st := t.bySource[r.src]
		if st == nil || st.entries[r.pos] == nil {
			continue
		}
		if slotsIn(refs[:i], r.src) == 1 {
			st.multi-- // this source's second slot of the subscription
		}
		if st.entries[r.pos].Agg != nil {
			t.grouped--
		}
		st.entries[r.pos] = nil
		st.live--
		removed++
		if st.ix != nil {
			st.ix.Remove(r.pos)
		} else {
			st.scan.Kill(int(r.pos))
		}
	}
	t.size -= removed
	for _, r := range refs {
		st := t.bySource[r.src]
		if st == nil {
			continue
		}
		if st.live == 0 {
			delete(t.bySource, r.src)
			continue
		}
		if dead := len(st.entries) - st.live; dead > 32 && dead > st.live {
			t.compactSource(r.src, st)
		}
	}
	return removed
}

// compactSource squeezes tombstoned slots out of one source list and
// its scan, rewrites the affected back-references and rebuilds the
// source's index in one batch (each touched width class sorted exactly
// once). Amortized over the removals that forced it, compaction
// is O(1) per removed entry plus the batch index build.
func (t *Table) compactSource(src msg.NodeID, st *sourceState) {
	// Drop every back-reference into this source, then re-derive them
	// from the compacted slot list below. Removed subscriptions lost
	// their refs wholesale in RemoveSub, so every ref into this source
	// belongs to a surviving entry — visiting only those keeps the
	// sweep O(source size), not O(table size).
	for _, e := range st.entries {
		if e == nil {
			continue
		}
		refs := t.bySub[e.Sub.ID]
		n := 0
		for _, r := range refs {
			if r.src != src {
				refs[n] = r
				n++
			}
		}
		if n != len(refs) {
			t.bySub[e.Sub.ID] = refs[:n]
		}
	}
	k := int32(0)
	for _, e := range st.entries {
		if e == nil {
			continue
		}
		st.entries[k] = e
		k++
	}
	st.entries = st.entries[:k]
	st.multi = 0
	for i, e := range st.entries {
		refs := append(t.bySub[e.Sub.ID], entryRef{src: src, pos: int32(i)})
		t.bySub[e.Sub.ID] = refs
		if slotsIn(refs, src) == 2 {
			st.multi++
		}
	}
	if st.ix != nil {
		st.rebuildIndex()
	} else {
		st.scan.Compact()
	}
}

// rebuildIndex replaces the source's matcher with an index built in one
// batch over its live slots (ids are positions).
func (st *sourceState) rebuildIndex() {
	ids := make([]int32, 0, st.live)
	filters := make([]*filter.Filter, 0, st.live)
	for i, e := range st.entries {
		if e != nil {
			ids = append(ids, int32(i))
			filters = append(filters, e.Sub.Filter)
		}
	}
	st.ix = filter.NewIndex()
	st.ix.AddBatch(ids, filters)
	st.scan = filter.Scan{}
}

// EnableIndex moves every source the table has now to an index, whatever
// its filters; sources created later pick their matcher as Add does.
// Matching semantics are identical.
func (t *Table) EnableIndex() {
	for _, st := range t.bySource {
		if st.ix == nil {
			st.rebuildIndex()
		}
	}
}

// Match returns the entries whose source matches the message's ingress
// and whose filter matches its attributes, in deterministic order.
func (t *Table) Match(m *msg.Message) []*Entry { return t.MatchAppend(m, nil) }

// MatchAppend is Match appending into buf, so a caller that owns a
// scratch buffer matches without allocating. The attribute set is passed
// by pointer throughout to avoid boxing it into an interface per filter
// evaluation — the dominant allocation of the pre-optimization broker.
// It requires exclusive use of the table (it matches through the
// table-owned scratch); concurrent matchers use MatchAppendWith.
func (t *Table) MatchAppend(m *msg.Message, buf []*Entry) []*Entry {
	if t.scratch == nil {
		t.scratch = new(filter.MatchScratch)
	}
	return t.MatchAppendWith(t.scratch, m, buf)
}

// MatchAppendWith is MatchAppend through a caller-owned match scratch:
// any number of matchers may run concurrently against one table — a
// live node runs one per connection read loop under the node's read
// lock — as long as mutations hold the write lock. Either matcher
// touches only the scratch and state that mutations alone write.
func (t *Table) MatchAppendWith(s *filter.MatchScratch, m *msg.Message, buf []*Entry) []*Entry {
	st := t.bySource[m.Ingress]
	if st == nil {
		return buf
	}
	if st.ix != nil {
		return appendIndexed(st, st.ix.MatchWith(s, &m.Attrs), buf)
	}
	return appendLinear(st, s, m, buf)
}

// appendIndexed resolves index positions to entries in first-add order.
func appendIndexed(st *sourceState, ids []int32, buf []*Entry) []*Entry {
	// The index emits positions in completion order and the caller owns
	// the slice; sorting it in place restores first-add order.
	slices.Sort(ids)
	for _, id := range ids {
		if e := st.entries[id]; e != nil {
			buf = append(buf, e)
		}
	}
	return buf
}

// appendLinear scans one source's entries in slot order: the message's
// attributes are resolved into the scratch once, the source's scan
// decides every row from its bound columns in one pass
// (filter.MatchScratch.ScanRows), and only the rows it flags — a value
// within a float32 ulp of a bound, a filter the columns cannot hold —
// evaluate the entry's filter (filter.MatchResolved). A row it decides
// loads its entry only to append it.
func appendLinear(st *sourceState, s *filter.MatchScratch, m *msg.Message, buf []*Entry) []*Entry {
	s.Resolve(&m.Attrs)
	for _, r := range s.ScanRows(&st.scan) {
		e := st.entries[r>>1]
		if r&1 == 0 || e.Sub.Filter.MatchResolved(s, &m.Attrs) {
			buf = append(buf, e)
		}
	}
	return buf
}

// Distinct reports whether a match of a message from ingress src returns
// each subscription at most once and no covering group to fan out: no
// subscription holds two of the source's live slots, and no live entry
// of the table carries a group. A broker then needs no per-message
// subscription dedup. Like matching, it reads the table under the read
// lock.
func (t *Table) Distinct(src msg.NodeID) bool {
	if t.grouped > 0 {
		return false
	}
	st := t.bySource[src]
	return st == nil || st.multi == 0
}

// Entries returns all live entries for an ingress, for tests and
// inspection. When the slot list carries no tombstones the backing
// array is returned directly; otherwise a compacted copy is built.
func (t *Table) Entries(source msg.NodeID) []*Entry {
	st := t.bySource[source]
	if st == nil {
		return nil
	}
	if st.live == len(st.entries) {
		return st.entries
	}
	out := make([]*Entry, 0, st.live)
	for _, e := range st.entries {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// SubEntries appends one subscription's live entries to dst through its
// back-references, without scanning the table, and returns it. A
// source's entries come in slot order.
func (t *Table) SubEntries(id msg.SubID, dst []*Entry) []*Entry {
	for _, r := range t.bySub[id] {
		if st := t.bySource[r.src]; st != nil && st.entries[r.pos] != nil {
			dst = append(dst, st.entries[r.pos])
		}
	}
	return dst
}

// Sources returns the ingress ids present in the table, sorted.
func (t *Table) Sources() []msg.NodeID {
	out := make([]msg.NodeID, 0, len(t.bySource))
	for s := range t.bySource {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CoverageStats summarizes a routing build for diagnostics: entries per
// broker and total state.
type CoverageStats struct {
	Brokers      int
	TotalEntries int
	MaxPerBroker int
}

// Stats computes coverage statistics over a table set.
func Stats(tables map[msg.NodeID]*Table) CoverageStats {
	cs := CoverageStats{Brokers: len(tables)}
	for _, t := range tables {
		cs.TotalEntries += t.Len()
		if t.Len() > cs.MaxPerBroker {
			cs.MaxPerBroker = t.Len()
		}
	}
	return cs
}

// group returns the shared Group of a subscription's entries in this
// table, creating (and stamping on every live slot) one when create is
// set. Returns nil when the subscription has no live entries here.
func (t *Table) group(id msg.SubID, create bool) *Group {
	refs := t.bySub[id]
	var g *Group
	for _, r := range refs {
		st := t.bySource[r.src]
		if st == nil || st.entries[r.pos] == nil {
			continue
		}
		if a := st.entries[r.pos].Agg; a != nil {
			g = a
			break
		}
	}
	if g == nil {
		if !create {
			return nil
		}
		g = &Group{Refs: 1}
	}
	stamped := 0
	for _, r := range refs {
		st := t.bySource[r.src]
		if st == nil || st.entries[r.pos] == nil {
			continue
		}
		t.stamp(st.entries[r.pos], g)
		stamped++
	}
	if stamped == 0 {
		return nil
	}
	return g
}

// Attach folds an exact-duplicate subscription into a representative's
// entries: member is delivered wherever rep's entries deliver locally,
// and every entry's refcount grows by one. Member order is insertion
// order (the aggregation layer's promotion policy depends on it).
// Reports whether the representative was found.
func (t *Table) Attach(rep msg.SubID, member *msg.Subscription) bool {
	g := t.group(rep, true)
	if g == nil {
		return false
	}
	g.Members = append(g.Members, member)
	g.Refs++
	return true
}

// Detach removes a member previously folded in with Attach, dropping the
// refcount. Reports whether the member was found.
func (t *Table) Detach(rep msg.SubID, member msg.SubID) bool {
	g := t.group(rep, false)
	if g == nil {
		return false
	}
	for i, m := range g.Members {
		if m.ID == member {
			// Swap-remove: hot groups hold thousands of members and the
			// oldest depart first under windowed churn, so an
			// order-preserving delete would move almost the whole list.
			// The aggregator's mirror list uses the same rule, keeping
			// the two in lockstep for promotion.
			last := len(g.Members) - 1
			g.Members[i] = g.Members[last]
			g.Members = g.Members[:last]
			g.Refs--
			return true
		}
	}
	return false
}

// AddRef records one more concrete subscription riding a
// representative's entries (a properly-covered subscription whose
// forwarding was suppressed). Reports whether the representative was
// found.
func (t *Table) AddRef(rep msg.SubID) bool {
	g := t.group(rep, true)
	if g == nil {
		return false
	}
	g.Refs++
	return true
}

// DropRef is the inverse of AddRef.
func (t *Table) DropRef(rep msg.SubID) bool {
	g := t.group(rep, false)
	if g == nil {
		return false
	}
	g.Refs--
	return true
}

// Promote retires a representative whose group still has members by
// renaming its entries to the last-attached member: the filter is
// identical, so every slot, back-reference position and index posting
// stays valid — no table mutation beyond the identity swap. The group
// (minus the promoted member, minus the departing representative's ref)
// survives on the entries. Returns the new representative, or nil when
// the subscription has no live entries or no members to promote.
func (t *Table) Promote(rep msg.SubID) *msg.Subscription {
	refs := t.bySub[rep]
	if len(refs) == 0 {
		return nil
	}
	g := t.group(rep, false)
	if g == nil || len(g.Members) == 0 {
		return nil
	}
	next := g.Members[len(g.Members)-1]
	g.Members = g.Members[:len(g.Members)-1]
	g.Refs--
	for _, r := range refs {
		st := t.bySource[r.src]
		if st == nil || st.entries[r.pos] == nil {
			continue
		}
		st.entries[r.pos].Sub = next
	}
	t.bySub[next.ID] = refs
	delete(t.bySub, rep)
	return next
}

// TakeGroup reads a subscription's group (nil when it has none) so a
// caller about to RemoveSub-and-reinstall the same subscription —
// topology repair re-flooding a representative — can carry the covering
// set across the move with SetGroup.
func (t *Table) TakeGroup(id msg.SubID) *Group { return t.group(id, false) }

// SetGroup stamps a group onto every live entry of a subscription (the
// reinstall half of TakeGroup). A nil group is a no-op.
func (t *Table) SetGroup(id msg.SubID, g *Group) {
	if g == nil {
		return
	}
	for _, r := range t.bySub[id] {
		st := t.bySource[r.src]
		if st == nil || st.entries[r.pos] == nil {
			continue
		}
		t.stamp(st.entries[r.pos], g)
	}
}

// stamp sets a live entry's group, keeping the grouped count.
func (t *Table) stamp(e *Entry, g *Group) {
	if e.Agg == nil {
		t.grouped++
	}
	e.Agg = g
}

// AggregatedEntries counts live entries standing for more than one
// concrete subscription — the table-size side of the aggregation win.
func (t *Table) AggregatedEntries() int {
	n := 0
	for _, st := range t.bySource {
		for _, e := range st.entries {
			if e != nil && e.Agg != nil && e.Agg.Refs > 1 {
				n++
			}
		}
	}
	return n
}
