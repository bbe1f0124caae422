package routing

import (
	"fmt"
	"slices"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
)

// RateFunc supplies the per-KB rate distribution a broker believes a link
// has. The default uses the true distributions from the overlay graph
// (the paper assumes known parameters); the estimation ablation passes
// measured estimates instead.
type RateFunc func(from, to msg.NodeID) stats.Normal

// Options configures a routing build.
type Options struct {
	// Rates overrides the link-rate beliefs; nil means the overlay's true
	// distributions.
	Rates RateFunc
	// Multipath installs up to K paths per (ingress, subscription) when
	// K > 1. K = 0 or 1 is single-path (the paper's default).
	Multipath int
}

// Build computes the per-broker subscription tables for an overlay and a
// subscription population. Every subscription's edge broker must be listed
// in ov.Edges; every table is returned even if empty, so brokers can be
// constructed uniformly.
func Build(ov *topology.Overlay, subs []*msg.Subscription, opts Options) (map[msg.NodeID]*Table, error) {
	rates := opts.Rates
	if rates == nil {
		rates = func(from, to msg.NodeID) stats.Normal {
			r, ok := ov.Graph.Rate(from, to)
			if !ok {
				// Unreachable: Build only asks for rates of arcs on paths
				// returned by the graph itself.
				panic(fmt.Sprintf("routing: no arc %d->%d", from, to))
			}
			return r
		}
	}

	nodes := ov.Graph.N()
	edgeSet := make(map[msg.NodeID]bool, len(ov.Edges))
	for _, e := range ov.Edges {
		edgeSet[e] = true
	}

	k := opts.Multipath
	if k < 1 {
		k = 1
	}

	// Subscriptions attached to one edge broker share their delivery paths
	// and residual rates: route every (ingress, edge) pair once, counting
	// what each table will receive — entries per ingress, distinct
	// subscriptions, entries per subscription of an edge.
	perEdge := make(map[msg.NodeID]int, len(ov.Edges))
	for _, sub := range subs {
		if !edgeSet[sub.Edge] {
			return nil, fmt.Errorf("routing: subscription %d attaches to non-edge broker %d", sub.ID, sub.Edge)
		}
		perEdge[sub.Edge]++
	}
	routes := make([][][]route, len(ov.Ingress))    // [ingress index][edge id]
	perSource := make([]int, nodes*len(ov.Ingress)) // [broker id][ingress index] → entries
	subsAt := make([]int, nodes)
	refCap := make(map[[2]msg.NodeID]int) // (broker, edge) → entries per subscription
	var parts []stats.Normal
	// Every (ingress, edge) pair's route list is carved from one buffer
	// sized for k routes per pair.
	routeBuf := make([]route, 0, len(ov.Ingress)*len(perEdge)*k)
	for si, src := range ov.Ingress {
		routes[si] = make([][]route, nodes)
		// One Dijkstra per ingress covers all single-path routes.
		var dist []float64
		var prev []msg.NodeID
		if k == 1 {
			dist, prev = ov.Graph.ShortestPaths(src)
		}
		for _, sub := range subs {
			edge := sub.Edge
			if routes[si][edge] != nil {
				continue
			}
			var paths [][]msg.NodeID
			if k > 1 {
				paths = ov.Graph.KShortestPaths(src, edge, k)
			} else if p, ok := pathVia(dist, prev, src, edge); ok {
				paths = [][]msg.NodeID{p}
			}
			if len(paths) == 0 {
				return nil, fmt.Errorf("routing: no path %d->%d for subscription %d", src, edge, sub.ID)
			}
			n := len(routeBuf)
			routeBuf = routeBuf[:n+len(paths)]
			rs := routeBuf[n : n+len(paths) : n+len(paths)]
			for i, path := range paths {
				rs[i], parts = newRoute(path, rates, parts)
				for _, at := range path {
					perSource[int(at)*len(ov.Ingress)+si] += perEdge[edge]
					key := [2]msg.NodeID{at, edge}
					if refCap[key] == 0 {
						subsAt[at] += perEdge[edge]
					}
					refCap[key]++
				}
			}
			routes[si][edge] = rs
		}
	}
	for si := range routes {
		for edge, rs := range routes[si] {
			for _, r := range rs {
				for i, at := range r.path {
					r.at[i].refs = refCap[[2]msg.NodeID{at, msg.NodeID(edge)}]
				}
			}
		}
	}

	// Lower every filter once, into scan rows over one column set.
	var rows filter.Scan
	rows.Reserve(len(subs))
	for _, sub := range subs {
		rows.Add(sub.Filter)
	}
	all, nonEmpty := 0, 0
	for _, c := range perSource {
		all += c
		if c > 0 {
			nonEmpty++
		}
	}
	bounds, states := make([]float32, all*rows.Width()), make([]uint8, all)

	// Install in the historical Add order (ingress, subscription, path,
	// position) into tables sized by the counts: a table's entries are
	// carved from one slab (contiguous in scan order per ingress), its
	// back-references from another, every source's state, entry list and
	// scan from four slabs shared by all tables (each window capped, so
	// a later Add grows a copy), and no list grows.
	tables := make(map[msg.NodeID]*Table, nodes)
	slabs := make([]tableSlab, nodes)
	sources := make([]sourceState, 0, nonEmpty)
	entries, refs, lists := make([]Entry, all), make([]entryRef, all), make([]*Entry, all)
	off := 0
	for at := range slabs {
		id := msg.NodeID(at)
		counts := perSource[at*len(ov.Ingress) : (at+1)*len(ov.Ingress)]
		total, srcs := 0, 0
		for _, c := range counts {
			total += c
			srcs += min(c, 1)
		}
		if total == 0 {
			tables[id] = NewTable(id)
			continue
		}
		end := off + total
		slabs[at] = tableSlab{entries: entries[off:off:end], refs: refs[off:off:end]}
		t := &Table{
			broker:   id,
			bySource: make(map[msg.NodeID]*sourceState, srcs),
			bySub:    make(map[msg.SubID][]entryRef, subsAt[at]),
		}
		tables[id] = t
		for si, c := range counts {
			if c > 0 {
				sources = append(sources, sourceState{
					entries: lists[off : off : off+c],
					scan:    rows.Carve(c, &bounds, &states),
				})
				t.bySource[ov.Ingress[si]] = &sources[len(sources)-1]
				off += c
			}
		}
	}
	for si, src := range ov.Ingress {
		for j, sub := range subs {
			for pathID, r := range routes[si][sub.Edge] {
				for i, at := range r.path {
					slab := &slabs[at]
					slab.entries = append(slab.entries, Entry{})
					e := &slab.entries[len(slab.entries)-1]
					e.set(r.path, i, sub, src, pathID, r.at[i].rate)
					st, _ := tables[at].add(e, slab, r.at[i].refs)
					st.scan.AddRow(&rows, j)
				}
			}
		}
	}
	// Each source then picks its matcher as Add would have picked it, an
	// index built in one batch once it holds a filter the index posts —
	// a pass skipped when no filter posts (a one-sided population).
	if !slices.ContainsFunc(subs, func(s *msg.Subscription) bool { return filter.Posts(s.Filter) }) {
		return tables, nil
	}
	for i := range sources {
		st := &sources[i]
		for j := 0; j < len(st.entries) && st.ix == nil; j++ {
			st.settle(st.entries[j].Sub.Filter)
		}
	}
	return tables, nil
}

// route is one delivery path of a bulk build, with what the table at
// each position needs to know: at[i].rate is the believed rate of the
// residual path path[i..end], at[i].refs the number of entries one
// subscription of the path's edge holds in that table (over all
// ingresses and paths).
type route struct {
	path []msg.NodeID
	at   []routeHop
}

type routeHop struct {
	rate stats.Normal
	refs int
}

// newRoute computes a path's residual rates through the caller's link
// scratch (returned grown). Each position sums its own suffix of links
// front to back — SumNormal's order, the one EntryAt uses: a running
// suffix sum would round differently.
func newRoute(path []msg.NodeID, rates RateFunc, parts []stats.Normal) (route, []stats.Normal) {
	parts = parts[:0]
	for j := 0; j+1 < len(path); j++ {
		parts = append(parts, rates(path[j], path[j+1]))
	}
	r := route{path: path, at: make([]routeHop, len(path))}
	for i := range parts {
		r.at[i].rate = stats.SumNormal(parts[i:]...)
	}
	return r, parts
}

// tableSlab is one table's exact-size backing store during a bulk build
// (see Build): the entries themselves, and the back-reference slots of
// all its subscriptions.
type tableSlab struct {
	entries []Entry
	refs    []entryRef
}

// Installer installs subscriptions into a table set after the bulk
// build — the churn path. Its overlay is immutable (topology repair
// builds a new Installer per surviving graph), so it computes each
// (ingress, edge) path set once — from one Dijkstra per ingress, exactly
// as the bulk Build amortizes it across the whole population — and a
// churn event stream costs only the entries it installs. Not safe for
// concurrent use.
type Installer struct {
	ov    *topology.Overlay
	rates RateFunc
	k     int
	// cached single-path Dijkstra state per ingress, computed lazily
	dist map[msg.NodeID][]float64
	prev map[msg.NodeID][]msg.NodeID
	// routes caches the path set of each (ingress, edge) pair asked for
	routes map[[2]msg.NodeID][][]msg.NodeID
}

// NewInstaller prepares a churn installer for one overlay and build
// options.
func NewInstaller(ov *topology.Overlay, opts Options) *Installer {
	rates := opts.Rates
	if rates == nil {
		rates = func(from, to msg.NodeID) stats.Normal {
			r, _ := ov.Graph.Rate(from, to)
			return r
		}
	}
	k := opts.Multipath
	if k < 1 {
		k = 1
	}
	return &Installer{
		ov:     ov,
		rates:  rates,
		k:      k,
		dist:   make(map[msg.NodeID][]float64),
		prev:   make(map[msg.NodeID][]msg.NodeID),
		routes: make(map[[2]msg.NodeID][][]msg.NodeID),
	}
}

// ingress returns (computing once) the Dijkstra state rooted at one
// ingress broker.
func (ins *Installer) ingress(src msg.NodeID) ([]float64, []msg.NodeID) {
	dist, ok := ins.dist[src]
	if !ok {
		dist, ins.prev[src] = ins.ov.Graph.ShortestPaths(src)
		ins.dist[src] = dist
	}
	return dist, ins.prev[src]
}

// Paths exposes the delivery path set the installer uses from one
// ingress to an edge broker (nil when unreachable). The topology-repair
// layer diffs these across graph mutations to find the routes a failure
// actually moved. The result is the installer's cached copy, shared by
// every later call: callers must not mutate it.
func (ins *Installer) Paths(src, edge msg.NodeID) [][]msg.NodeID {
	key := [2]msg.NodeID{src, edge}
	ps, ok := ins.routes[key]
	if !ok {
		ps = ins.computePaths(src, edge)
		ins.routes[key] = ps
	}
	return ps
}

// computePaths returns the delivery path set from one ingress to an
// edge (one cached-Dijkstra path, or K shortest paths in multipath
// mode); nil when unreachable.
func (ins *Installer) computePaths(src, edge msg.NodeID) [][]msg.NodeID {
	if ins.k == 1 {
		dist, prev := ins.ingress(src)
		p, ok := pathVia(dist, prev, src, edge)
		if !ok {
			return nil
		}
		return [][]msg.NodeID{p}
	}
	return ins.ov.Graph.KShortestPaths(src, edge, ins.k)
}

// Install adds one subscription's entries at every broker along its
// delivery paths: for each ingress the same deterministic min-mean path
// (or K shortest paths) the bulk build would have chosen. Tables absorb
// the additions incrementally, as Table.Add does.
// Unreachable (ingress, edge) pairs are skipped, mirroring the live
// overlay's dynamic flood behavior. Returns the entries installed.
func (ins *Installer) Install(tables map[msg.NodeID]*Table, sub *msg.Subscription) int {
	installed := 0
	for _, src := range ins.ov.Ingress {
		for pathID, path := range ins.Paths(src, sub.Edge) {
			installPath(tables, path, sub, src, pathID, ins.rates)
			installed += len(path)
		}
	}
	return installed
}

// InstallAt adds only the entries belonging to one broker along the
// subscription's paths — the live overlay's per-node flood handler,
// where every broker independently computes its own slice of the route.
// Returns the entries installed.
func (ins *Installer) InstallAt(id msg.NodeID, table *Table, sub *msg.Subscription) int {
	installed := 0
	for _, src := range ins.ov.Ingress {
		for pathID, path := range ins.Paths(src, sub.Edge) {
			for i, at := range path {
				if at != id {
					continue
				}
				table.Add(EntryAt(path, i, sub, src, pathID, ins.rates))
				installed++
			}
		}
	}
	return installed
}

// InstallExcept is Install skipping one broker — the aggregation layer's
// re-exposure path, where a subscription already holds its local entries
// at its edge broker and only the forwarding entries elsewhere must
// materialize. Returns the entries installed.
func (ins *Installer) InstallExcept(tables map[msg.NodeID]*Table, sub *msg.Subscription, skip msg.NodeID) int {
	installed := 0
	for _, src := range ins.ov.Ingress {
		for pathID, path := range ins.Paths(src, sub.Edge) {
			for i, at := range path {
				if at == skip {
					continue
				}
				tables[at].Add(EntryAt(path, i, sub, src, pathID, ins.rates))
				installed++
			}
		}
	}
	return installed
}

// RemoveSubAll removes a subscription from every table — the churn
// counterpart of Installer.Install — returning the total entries removed.
func RemoveSubAll(tables map[msg.NodeID]*Table, id msg.SubID) int {
	removed := 0
	for _, t := range tables {
		removed += t.RemoveSub(id)
	}
	return removed
}

// pathVia reconstructs the shortest path from precomputed Dijkstra state.
func pathVia(dist []float64, prev []msg.NodeID, src, dst msg.NodeID) ([]msg.NodeID, bool) {
	const unreachable = 1.7e308
	if dist[dst] > unreachable {
		return nil, false
	}
	// Walk back once to size the path, then fill it back to front.
	n := 1
	for at := dst; at != src; at = prev[at] {
		if prev[at] == msg.None {
			return nil, false
		}
		n++
	}
	path := make([]msg.NodeID, n)
	for at := dst; n > 0; at = prev[at] {
		n--
		path[n] = at
	}
	return path, true
}

// installPath writes one entry per broker along the path.
func installPath(tables map[msg.NodeID]*Table, path []msg.NodeID, sub *msg.Subscription, src msg.NodeID, pathID int, rates RateFunc) {
	for i := range path {
		tables[path[i]].Add(EntryAt(path, i, sub, src, pathID, rates))
	}
}

// EntryAt builds the routing entry for the broker at position i of a
// delivery path. The residual path is path[i..end]: Hops counts its
// links (each terminating at a broker that must still process the
// message, which is the paper's NN_p), and Rate sums the believed link
// distributions. Static table builds and the live overlay's dynamic
// subscription floods share this one definition.
func EntryAt(path []msg.NodeID, i int, sub *msg.Subscription, src msg.NodeID, pathID int, rates RateFunc) *Entry {
	// Paths are a few hops: the links' distributions fit the stack.
	var buf [16]stats.Normal
	parts := buf[:0]
	for j := i; j+1 < len(path); j++ {
		parts = append(parts, rates(path[j], path[j+1]))
	}
	e := new(Entry)
	e.set(path, i, sub, src, pathID, stats.SumNormal(parts...))
	return e
}

// set fills the entry for position i of a delivery path whose residual
// path path[i..end] has the given believed rate (zero at the edge).
func (e *Entry) set(path []msg.NodeID, i int, sub *msg.Subscription, src msg.NodeID, pathID int, rate stats.Normal) {
	*e = Entry{Sub: sub, Source: src, Next: msg.None, PathID: int32(pathID), Rate: rate}
	if last := len(path) - 1; i < last {
		e.Next = path[i+1]
		e.Hops = int32(last - i)
	}
}
