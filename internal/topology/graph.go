// Package topology models the broker overlay network: a graph whose links
// carry per-kilobyte transmission-time distributions (paper §3.2), builders
// for the paper's layered mesh (§6.1, Figure 3) and for the alternative
// acyclic and random-mesh shapes (§3.1), and the shortest-path machinery
// behind the single-path routing protocol (§3.3): minimize the mean value
// of the transmission rate of the path.
package topology

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"bdps/internal/msg"
	"bdps/internal/stats"
)

// Edge is one directed use of an overlay link.
type Edge struct {
	To   msg.NodeID
	Rate stats.Normal // per-KB transmission time, ms/KB
}

// Graph is a broker overlay graph. Nodes are dense ids [0, N). Links are
// stored as directed arcs; AddLink installs both directions with the same
// rate distribution (an overlay link is one TCP connection).
type Graph struct {
	adj [][]Edge
}

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// valid reports whether id names a node.
func (g *Graph) valid(id msg.NodeID) bool {
	return id >= 0 && int(id) < len(g.adj)
}

// AddArc installs a directed link a→b. It replaces the rate if the arc
// already exists.
func (g *Graph) AddArc(a, b msg.NodeID, rate stats.Normal) error {
	if !g.valid(a) || !g.valid(b) {
		return fmt.Errorf("topology: arc %d->%d out of range [0,%d)", a, b, g.N())
	}
	if a == b {
		return fmt.Errorf("topology: self-loop at node %d", a)
	}
	for i := range g.adj[a] {
		if g.adj[a][i].To == b {
			g.adj[a][i].Rate = rate
			return nil
		}
	}
	g.adj[a] = append(g.adj[a], Edge{To: b, Rate: rate})
	return nil
}

// AddLink installs an undirected link (both arcs) with one rate
// distribution.
func (g *Graph) AddLink(a, b msg.NodeID, rate stats.Normal) error {
	if err := g.AddArc(a, b, rate); err != nil {
		return err
	}
	return g.AddArc(b, a, rate)
}

// RemoveArc deletes the directed link a→b, reporting whether it existed.
// The topology-repair layer prunes confirmed-dead arcs with it; removing
// a missing arc is a no-op so repair events stay idempotent.
func (g *Graph) RemoveArc(a, b msg.NodeID) bool {
	if !g.valid(a) {
		return false
	}
	for i := range g.adj[a] {
		if g.adj[a][i].To == b {
			g.adj[a] = append(g.adj[a][:i], g.adj[a][i+1:]...)
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph. Repair works on a clone so the
// original deployment topology stays intact as the ground truth to
// restore recovered links from.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]Edge, len(g.adj))}
	for i, edges := range g.adj {
		if len(edges) == 0 {
			continue
		}
		c.adj[i] = append(make([]Edge, 0, len(edges)), edges...)
	}
	return c
}

// Neighbors returns the outgoing edges of a in insertion order. The slice
// is shared; callers must not mutate it.
func (g *Graph) Neighbors(a msg.NodeID) []Edge {
	if !g.valid(a) {
		return nil
	}
	return g.adj[a]
}

// Rate returns the rate distribution of arc a→b.
func (g *Graph) Rate(a, b msg.NodeID) (stats.Normal, bool) {
	if !g.valid(a) {
		return stats.Normal{}, false
	}
	for _, e := range g.adj[a] {
		if e.To == b {
			return e.Rate, true
		}
	}
	return stats.Normal{}, false
}

// HasArc reports whether the directed link a→b exists.
func (g *Graph) HasArc(a, b msg.NodeID) bool {
	_, ok := g.Rate(a, b)
	return ok
}

// Arcs returns every directed link as (from, to) pairs in deterministic
// order.
func (g *Graph) Arcs() [][2]msg.NodeID {
	var out [][2]msg.NodeID
	for a := range g.adj {
		for _, e := range g.adj[a] {
			out = append(out, [2]msg.NodeID{msg.NodeID(a), e.To})
		}
	}
	return out
}

// SortedArcs returns Arcs ordered by (from, to): the one link
// enumeration every seeded per-link stream is indexed by, so the
// simulator and the live backend number the links alike.
func (g *Graph) SortedArcs() [][2]msg.NodeID {
	arcs := g.Arcs()
	slices.SortFunc(arcs, func(x, y [2]msg.NodeID) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return arcs
}

// Degree returns the out-degree of a node.
func (g *Graph) Degree(a msg.NodeID) int { return len(g.Neighbors(a)) }

// Overlay is a graph plus the roles the pub/sub system assigns to nodes:
// ingress brokers host publishers, edge brokers host subscribers. A node
// may be both (acyclic topologies allow any broker to serve both sides,
// §3.1).
type Overlay struct {
	Graph   *Graph
	Ingress []msg.NodeID   // brokers that accept published messages
	Edges   []msg.NodeID   // brokers that serve subscribers
	Layers  [][]msg.NodeID // optional layer annotation (layered builder)
	Name    string         // builder label, for reports
}

// Validate checks internal consistency: roles reference valid nodes and
// the graph is connected enough that every (ingress, edge) pair has a
// path.
func (o *Overlay) Validate() error {
	for _, id := range o.Ingress {
		if !o.Graph.valid(id) {
			return fmt.Errorf("topology: ingress %d out of range", id)
		}
	}
	for _, id := range o.Edges {
		if !o.Graph.valid(id) {
			return fmt.Errorf("topology: edge %d out of range", id)
		}
	}
	for _, in := range o.Ingress {
		dist, _ := o.Graph.ShortestPaths(in)
		for _, e := range o.Edges {
			if dist[e] >= unreachable {
				return fmt.Errorf("topology: edge broker %d unreachable from ingress %d", e, in)
			}
		}
	}
	return nil
}

// sortNodeIDs sorts a node id slice in place (deterministic outputs).
func sortNodeIDs(ids []msg.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
