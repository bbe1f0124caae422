package topology

import (
	"container/heap"
	"math/rand/v2"
	"slices"
	"testing"

	"bdps/internal/msg"
	"bdps/internal/stats"
)

// refHeap is the reference priority queue: container/heap over the same
// (dist, id) order as nodeHeap.
type refHeap []nodeItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].id < h[j].id
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(nodeItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refDijkstra is Dijkstra through container/heap, avoiding banned arcs
// and removed nodes, with ties toward the smaller predecessor: what
// ShortestPaths (no bans) and constrainedPath compute.
func refDijkstra(g *Graph, src msg.NodeID, banned map[[2]msg.NodeID]bool, removed map[msg.NodeID]bool) ([]float64, []msg.NodeID) {
	dist := make([]float64, g.N())
	prev := make([]msg.NodeID, g.N())
	for i := range dist {
		dist[i], prev[i] = unreachable, msg.None
	}
	dist[src] = 0
	pq := &refHeap{{id: src}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeItem)
		if it.dist > dist[it.id] {
			continue
		}
		for _, e := range g.adj[it.id] {
			if removed[e.To] || banned[[2]msg.NodeID{it.id, e.To}] {
				continue
			}
			nd := it.dist + e.Rate.Mean
			switch {
			case nd < dist[e.To]:
				dist[e.To], prev[e.To] = nd, it.id
				heap.Push(pq, nodeItem{id: e.To, dist: nd})
			case nd == dist[e.To] && it.id < prev[e.To]:
				prev[e.To] = it.id
			}
		}
	}
	return dist, prev
}

// refKShortest is Yen's algorithm as KShortestPaths runs it, its spur
// paths taken from refDijkstra.
func refKShortest(g *Graph, src, dst msg.NodeID, k int) [][]msg.NodeID {
	dist, prev := refDijkstra(g, src, nil, nil)
	first, ok := extractPath(dist, prev, src, dst)
	if !ok {
		return nil
	}
	paths := [][]msg.NodeID{first}
	var candidates []weightedPath
	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i < len(last)-1; i++ {
			root := last[:i+1]
			banned := map[[2]msg.NodeID]bool{}
			for _, p := range paths {
				if len(p) > i && samePath(p[:i+1], root) {
					banned[[2]msg.NodeID{p[i], p[i+1]}] = true
				}
			}
			removed := map[msg.NodeID]bool{}
			for _, nid := range root[:i] {
				removed[nid] = true
			}
			if removed[dst] {
				continue
			}
			dist, prev := refDijkstra(g, last[i], banned, removed)
			spur, ok := extractPath(dist, prev, last[i], dst)
			if !ok {
				continue
			}
			total := append(slices.Clone(root[:i]), spur...)
			if containsPath(paths, total) || containsCandidate(candidates, total) {
				continue
			}
			rate, _ := g.PathRate(total)
			candidates = append(candidates, weightedPath{path: total, mean: rate.Mean})
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := range candidates {
			if candidates[i].less(candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best].path)
		candidates = slices.Delete(candidates, best, best+1)
	}
	return paths
}

// tiedGraph is a random connected-ish graph whose link means come from
// {1, 2, 3}, so equal-weight paths, and equal-distance heap items, are
// everywhere.
func tiedGraph(r *rand.Rand) *Graph {
	n := 4 + r.IntN(13)
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddLink(msg.NodeID(r.IntN(i)), msg.NodeID(i), stats.Normal{Mean: float64(1 + r.IntN(3)), Sigma: 1})
	}
	for e := r.IntN(2 * n); e > 0; e-- {
		a, b := msg.NodeID(r.IntN(n)), msg.NodeID(r.IntN(n))
		if a != b {
			g.AddArc(a, b, stats.Normal{Mean: float64(1 + r.IntN(3)), Sigma: 1})
		}
	}
	return g
}

// TestDijkstraMatchesReference: on 300 seeded random graphs full of
// equal-weight ties, ShortestPaths returns the reference's distances and
// predecessors from every source, and KShortestPaths its paths between
// every pair.
func TestDijkstraMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		g := tiedGraph(rand.New(rand.NewPCG(seed, 1)))
		for src := msg.NodeID(0); int(src) < g.N(); src++ {
			dist, prev := g.ShortestPaths(src)
			wantDist, wantPrev := refDijkstra(g, src, nil, nil)
			if !slices.Equal(dist, wantDist) || !slices.Equal(prev, wantPrev) {
				t.Fatalf("graph %d, source %d: ShortestPaths = %v %v, reference %v %v",
					seed, src, dist, prev, wantDist, wantPrev)
			}
			for dst := msg.NodeID(0); int(dst) < g.N(); dst++ {
				got, want := g.KShortestPaths(src, dst, 4), refKShortest(g, src, dst, 4)
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("graph %d, %d→%d: KShortestPaths = %v, reference %v", seed, src, dst, got, want)
				}
			}
		}
	}
}

// TestNodeHeapPopsInOrder: pushes interleaved with pops, with equal
// distances everywhere, come out in (dist, id) order — the heap itself,
// which the label-correcting loops above would survive a fault in.
func TestNodeHeapPopsInOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	for round := 0; round < 200; round++ {
		var h nodeHeap
		var ref refHeap
		for op := 0; op < 64; op++ {
			if len(h) > 0 && r.IntN(3) == 0 {
				if got, want := h.pop(), heap.Pop(&ref).(nodeItem); got != want {
					t.Fatalf("round %d: pop %v, want %v", round, got, want)
				}
				continue
			}
			it := nodeItem{id: msg.NodeID(r.IntN(1000)), dist: float64(r.IntN(4))}
			h.push(it)
			heap.Push(&ref, it)
		}
		for len(h) > 0 {
			if got, want := h.pop(), heap.Pop(&ref).(nodeItem); got != want {
				t.Fatalf("round %d: drain pop %v, want %v", round, got, want)
			}
		}
	}
}
