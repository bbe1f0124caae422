package topology

import (
	"math"

	"bdps/internal/msg"
	"bdps/internal/stats"
)

// unreachable is the distance assigned to nodes with no path.
const unreachable = math.MaxFloat64

// ShortestPaths runs Dijkstra from src with edge weight = mean per-KB
// transmission time, the paper's path-selection criterion ("minimize the
// mean value of the transmission rate of the path", §3.3). It returns the
// distance to every node (unreachable = MaxFloat64) and the predecessor
// array. Ties are broken toward the smaller predecessor id, making routes
// deterministic for a given graph.
func (g *Graph) ShortestPaths(src msg.NodeID) (dist []float64, prev []msg.NodeID) {
	n := g.N()
	dist = make([]float64, n)
	prev = make([]msg.NodeID, n)
	for i := range dist {
		dist[i] = unreachable
		prev[i] = msg.None
	}
	if !g.valid(src) {
		return dist, prev
	}
	dist[src] = 0

	pq := make(nodeHeap, 0, n)
	pq.push(nodeItem{id: src, dist: 0})
	for len(pq) > 0 {
		it := pq.pop()
		if it.dist > dist[it.id] {
			continue // stale entry
		}
		for _, e := range g.adj[it.id] {
			nd := it.dist + e.Rate.Mean
			switch {
			case nd < dist[e.To]:
				dist[e.To] = nd
				prev[e.To] = it.id
				pq.push(nodeItem{id: e.To, dist: nd})
			case nd == dist[e.To] && it.id < prev[e.To]:
				prev[e.To] = it.id
			}
		}
	}
	return dist, prev
}

// Path returns the node sequence of the best path src..dst inclusive,
// or ok=false if dst is unreachable.
func (g *Graph) Path(src, dst msg.NodeID) (path []msg.NodeID, ok bool) {
	if !g.valid(src) || !g.valid(dst) {
		return nil, false
	}
	dist, prev := g.ShortestPaths(src)
	return extractPath(dist, prev, src, dst)
}

func extractPath(dist []float64, prev []msg.NodeID, src, dst msg.NodeID) ([]msg.NodeID, bool) {
	if dist[dst] >= unreachable {
		return nil, false
	}
	var rev []msg.NodeID
	for at := dst; ; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
		if prev[at] == msg.None {
			return nil, false
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// PathRate composes the per-KB transmission-time distribution of a path:
// the sum of independent link normals, TR_p ~ N(Σμ, Σσ²). It returns
// ok=false if any consecutive pair is not linked.
func (g *Graph) PathRate(path []msg.NodeID) (stats.Normal, bool) {
	var parts []stats.Normal
	for i := 0; i+1 < len(path); i++ {
		r, ok := g.Rate(path[i], path[i+1])
		if !ok {
			return stats.Normal{}, false
		}
		parts = append(parts, r)
	}
	return stats.SumNormal(parts...), true
}

// KShortestPaths returns up to k loopless paths src→dst ordered by total
// mean rate (Yen's algorithm). It is the substrate for the multi-path
// routing extension (§3.3 cites DCP-style multi-path forwarding).
func (g *Graph) KShortestPaths(src, dst msg.NodeID, k int) [][]msg.NodeID {
	if k <= 0 {
		return nil
	}
	first, ok := g.Path(src, dst)
	if !ok {
		return nil
	}
	paths := [][]msg.NodeID{first}
	var candidates []weightedPath

	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i < len(last)-1; i++ {
			spurNode := last[i]
			rootPath := last[:i+1]

			// Build a filtered graph: remove arcs used by previous paths
			// sharing this root, and remove root nodes except the spur.
			banned := make(map[[2]msg.NodeID]bool)
			for _, p := range paths {
				if len(p) > i && samePath(p[:i+1], rootPath) {
					banned[[2]msg.NodeID{p[i], p[i+1]}] = true
				}
			}
			removed := make(map[msg.NodeID]bool)
			for _, nid := range rootPath[:len(rootPath)-1] {
				removed[nid] = true
			}

			spurPath, ok := g.constrainedPath(spurNode, dst, banned, removed)
			if !ok {
				continue
			}
			total := append(append([]msg.NodeID{}, rootPath[:len(rootPath)-1]...), spurPath...)
			if containsPath(paths, total) || containsCandidate(candidates, total) {
				continue
			}
			rate, ok := g.PathRate(total)
			if !ok {
				continue
			}
			candidates = append(candidates, weightedPath{path: total, mean: rate.Mean})
		}
		if len(candidates) == 0 {
			break
		}
		// Pop the cheapest candidate (ties toward lexicographically
		// smaller path for determinism).
		best := 0
		for i := 1; i < len(candidates); i++ {
			if candidates[i].less(candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best].path)
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

type weightedPath struct {
	path []msg.NodeID
	mean float64
}

func (w weightedPath) less(o weightedPath) bool {
	if w.mean != o.mean {
		return w.mean < o.mean
	}
	return lessPath(w.path, o.path)
}

func lessPath(a, b []msg.NodeID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func samePath(a, b []msg.NodeID) bool {
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

func containsPath(paths [][]msg.NodeID, p []msg.NodeID) bool {
	for _, q := range paths {
		if samePath(p, q) {
			return true
		}
	}
	return false
}

func containsCandidate(cs []weightedPath, p []msg.NodeID) bool {
	for _, c := range cs {
		if samePath(c.path, p) {
			return true
		}
	}
	return false
}

// constrainedPath is Dijkstra avoiding banned arcs and removed nodes.
func (g *Graph) constrainedPath(src, dst msg.NodeID, banned map[[2]msg.NodeID]bool, removed map[msg.NodeID]bool) ([]msg.NodeID, bool) {
	n := g.N()
	dist := make([]float64, n)
	prev := make([]msg.NodeID, n)
	for i := range dist {
		dist[i] = unreachable
		prev[i] = msg.None
	}
	if removed[src] || removed[dst] {
		return nil, false
	}
	dist[src] = 0
	pq := make(nodeHeap, 0, n)
	pq.push(nodeItem{id: src, dist: 0})
	for len(pq) > 0 {
		it := pq.pop()
		if it.dist > dist[it.id] {
			continue
		}
		for _, e := range g.adj[it.id] {
			if removed[e.To] || banned[[2]msg.NodeID{it.id, e.To}] {
				continue
			}
			nd := it.dist + e.Rate.Mean
			if nd < dist[e.To] || (nd == dist[e.To] && it.id < prev[e.To]) {
				if nd < dist[e.To] {
					pq.push(nodeItem{id: e.To, dist: nd})
				}
				dist[e.To] = nd
				prev[e.To] = it.id
			}
		}
	}
	return extractPath(dist, prev, src, dst)
}

// nodeItem and nodeHeap implement the Dijkstra priority queue with
// deterministic (dist, id) ordering: a binary min-heap on the slice
// itself, so pushes and pops box nothing. A node is pushed again only at
// a strictly smaller distance, so no two items compare equal and the
// pop sequence is the order's alone, whatever the heap's shape.
type nodeItem struct {
	id   msg.NodeID
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].id < h[j].id
}

// push adds an item and sifts it up.
func (h *nodeHeap) push(it nodeItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if !q.less(i, up) {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
}

// pop removes and returns the least item; the heap must not be empty.
func (h *nodeHeap) pop() nodeItem {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}
