package topology

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"bdps/internal/msg"
	"bdps/internal/stats"
)

func rate(mean float64) stats.Normal { return stats.Normal{Mean: mean, Sigma: 20} }

func TestGraphAddAndQuery(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddLink(0, 1, rate(50)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddArc(1, 2, rate(60)); err != nil {
		t.Fatal(err)
	}
	if !g.HasArc(0, 1) || !g.HasArc(1, 0) {
		t.Error("AddLink must install both arcs")
	}
	if !g.HasArc(1, 2) || g.HasArc(2, 1) {
		t.Error("AddArc must install one arc")
	}
	if r, ok := g.Rate(0, 1); !ok || r.Mean != 50 {
		t.Error("Rate lookup failed")
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
	if len(g.Arcs()) != 3 {
		t.Errorf("Arcs = %d, want 3", len(g.Arcs()))
	}
}

func TestGraphRejectsBadLinks(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddLink(0, 0, rate(50)); err == nil {
		t.Error("self-loop should fail")
	}
	if err := g.AddLink(0, 5, rate(50)); err == nil {
		t.Error("out-of-range node should fail")
	}
	if err := g.AddLink(-1, 0, rate(50)); err == nil {
		t.Error("negative node should fail")
	}
}

func TestGraphAddArcReplaces(t *testing.T) {
	g := NewGraph(2)
	_ = g.AddArc(0, 1, rate(50))
	_ = g.AddArc(0, 1, rate(70))
	if r, _ := g.Rate(0, 1); r.Mean != 70 {
		t.Error("second AddArc should replace the rate")
	}
	if g.Degree(0) != 1 {
		t.Error("replacement must not duplicate the arc")
	}
}

func TestShortestPathSimpleChain(t *testing.T) {
	// 0 -50- 1 -60- 2, plus direct 0-2 at 200: chain wins.
	g := NewGraph(3)
	_ = g.AddLink(0, 1, rate(50))
	_ = g.AddLink(1, 2, rate(60))
	_ = g.AddLink(0, 2, rate(200))
	path, ok := g.Path(0, 2)
	if !ok {
		t.Fatal("no path found")
	}
	want := []msg.NodeID{0, 1, 2}
	if !samePath(path, want) {
		t.Errorf("path = %v, want %v", path, want)
	}
	dist, _ := g.ShortestPaths(0)
	if dist[2] != 110 {
		t.Errorf("dist = %v, want 110", dist[2])
	}
}

func TestShortestPathDirectWins(t *testing.T) {
	g := NewGraph(3)
	_ = g.AddLink(0, 1, rate(80))
	_ = g.AddLink(1, 2, rate(80))
	_ = g.AddLink(0, 2, rate(100))
	path, _ := g.Path(0, 2)
	if !samePath(path, []msg.NodeID{0, 2}) {
		t.Errorf("path = %v, want direct", path)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph(4)
	_ = g.AddLink(0, 1, rate(50))
	_ = g.AddLink(2, 3, rate(50))
	if _, ok := g.Path(0, 3); ok {
		t.Error("disconnected nodes should have no path")
	}
}

func TestShortestPathToSelf(t *testing.T) {
	g := NewGraph(2)
	_ = g.AddLink(0, 1, rate(50))
	path, ok := g.Path(0, 0)
	if !ok || len(path) != 1 || path[0] != 0 {
		t.Errorf("self path = %v, ok=%v", path, ok)
	}
}

// TestDijkstraOptimalityBruteForce checks Dijkstra against exhaustive
// path enumeration on small random graphs.
func TestDijkstraOptimalityBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		s := stats.NewStream(seed)
		n := 5 + s.IntN(3)
		g := NewGraph(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if s.Float64() < 0.5 {
					_ = g.AddLink(msg.NodeID(a), msg.NodeID(b), rate(s.Uniform(50, 100)))
				}
			}
		}
		dist, _ := g.ShortestPaths(0)
		best := bruteForceDistances(g, 0)
		for v := 0; v < n; v++ {
			got, want := dist[v], best[v]
			if math.IsInf(want, 1) {
				if got < unreachable {
					t.Fatalf("seed %d: node %d reachable by Dijkstra only", seed, v)
				}
				continue
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d: node %d dist %v, brute force %v", seed, v, got, want)
			}
		}
	}
}

func bruteForceDistances(g *Graph, src msg.NodeID) []float64 {
	n := g.N()
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	visited := make([]bool, n)
	var dfs func(at msg.NodeID, cost float64)
	dfs = func(at msg.NodeID, cost float64) {
		if cost < best[at] {
			best[at] = cost
		}
		visited[at] = true
		for _, e := range g.Neighbors(at) {
			if !visited[e.To] {
				dfs(e.To, cost+e.Rate.Mean)
			}
		}
		visited[at] = false
	}
	dfs(src, 0)
	return best
}

func TestPathRateComposition(t *testing.T) {
	g := NewGraph(3)
	_ = g.AddLink(0, 1, stats.Normal{Mean: 50, Sigma: 20})
	_ = g.AddLink(1, 2, stats.Normal{Mean: 70, Sigma: 20})
	r, ok := g.PathRate([]msg.NodeID{0, 1, 2})
	if !ok {
		t.Fatal("rate composition failed")
	}
	if r.Mean != 120 {
		t.Errorf("mean = %v, want 120", r.Mean)
	}
	if math.Abs(r.Sigma-math.Sqrt(800)) > 1e-12 {
		t.Errorf("sigma = %v, want sqrt(800)", r.Sigma)
	}
	if _, ok := g.PathRate([]msg.NodeID{0, 2}); ok {
		t.Error("unlinked pair should fail")
	}
}

func TestKShortestPaths(t *testing.T) {
	// Diamond: 0-1-3 (cost 100), 0-2-3 (cost 120), 0-3 direct (cost 300).
	g := NewGraph(4)
	_ = g.AddLink(0, 1, rate(50))
	_ = g.AddLink(1, 3, rate(50))
	_ = g.AddLink(0, 2, rate(60))
	_ = g.AddLink(2, 3, rate(60))
	_ = g.AddLink(0, 3, rate(300))
	paths := g.KShortestPaths(0, 3, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3: %v", len(paths), paths)
	}
	if !samePath(paths[0], []msg.NodeID{0, 1, 3}) {
		t.Errorf("1st path %v", paths[0])
	}
	if !samePath(paths[1], []msg.NodeID{0, 2, 3}) {
		t.Errorf("2nd path %v", paths[1])
	}
	if !samePath(paths[2], []msg.NodeID{0, 3}) {
		t.Errorf("3rd path %v", paths[2])
	}
}

func TestKShortestPathsLoopless(t *testing.T) {
	g := NewGraph(4)
	_ = g.AddLink(0, 1, rate(50))
	_ = g.AddLink(1, 2, rate(50))
	_ = g.AddLink(2, 3, rate(50))
	_ = g.AddLink(1, 3, rate(90))
	paths := g.KShortestPaths(0, 3, 10)
	for _, p := range paths {
		seen := make(map[msg.NodeID]bool)
		for _, n := range p {
			if seen[n] {
				t.Fatalf("path %v revisits %d", p, n)
			}
			seen[n] = true
		}
	}
	if len(paths) != 2 {
		t.Errorf("got %d loopless paths, want 2", len(paths))
	}
}

func TestBuildLayeredPaperShape(t *testing.T) {
	ov, err := BuildLayered(LayeredConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ov.Graph.N() != 32 {
		t.Fatalf("N = %d, want 32", ov.Graph.N())
	}
	if len(ov.Ingress) != 4 || len(ov.Edges) != 16 {
		t.Fatalf("ingress=%d edges=%d, want 4/16", len(ov.Ingress), len(ov.Edges))
	}
	if len(ov.Layers) != 4 {
		t.Fatalf("layers = %d, want 4", len(ov.Layers))
	}
	// Layer 2 fully connected to layer 1.
	for _, b2 := range ov.Layers[1] {
		for _, b1 := range ov.Layers[0] {
			if !ov.Graph.HasArc(b1, b2) {
				t.Errorf("missing L1-L2 link %d-%d", b1, b2)
			}
		}
	}
	// Layers 3 and 4: exactly 2 parents each.
	for li := 2; li < 4; li++ {
		parentSet := make(map[msg.NodeID]bool)
		for _, p := range ov.Layers[li-1] {
			parentSet[p] = true
		}
		for _, b := range ov.Layers[li] {
			parents := 0
			for _, e := range ov.Graph.Neighbors(b) {
				if parentSet[e.To] {
					parents++
				}
			}
			if parents != 2 {
				t.Errorf("layer %d broker %d has %d parents, want 2", li+1, b, parents)
			}
		}
	}
	// Link rates within the configured band.
	for _, arc := range ov.Graph.Arcs() {
		r, _ := ov.Graph.Rate(arc[0], arc[1])
		if r.Mean < 50 || r.Mean >= 100 || r.Sigma != 20 {
			t.Fatalf("link %v has rate %v outside config", arc, r)
		}
	}
}

func TestBuildLayeredDeterministic(t *testing.T) {
	a, err := BuildLayered(LayeredConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildLayered(LayeredConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	arcsA, arcsB := a.Graph.Arcs(), b.Graph.Arcs()
	if len(arcsA) != len(arcsB) {
		t.Fatal("different arc counts for same seed")
	}
	for i := range arcsA {
		if arcsA[i] != arcsB[i] {
			t.Fatal("different wiring for same seed")
		}
		ra, _ := a.Graph.Rate(arcsA[i][0], arcsA[i][1])
		rb, _ := b.Graph.Rate(arcsB[i][0], arcsB[i][1])
		if ra != rb {
			t.Fatal("different rates for same seed")
		}
	}
	c, err := BuildLayered(LayeredConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Graph.Arcs()) == len(arcsA) {
		same := true
		for i, arc := range c.Graph.Arcs() {
			if arc != arcsA[i] {
				same = false
				break
			}
			rc, _ := c.Graph.Rate(arc[0], arc[1])
			ra, _ := a.Graph.Rate(arc[0], arc[1])
			if rc != ra {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds should give different overlays")
		}
	}
}

func TestBuildLayeredRejectsBadConfig(t *testing.T) {
	if _, err := BuildLayered(LayeredConfig{LayerSizes: []int{4}}); err == nil {
		t.Error("single layer should fail")
	}
	if _, err := BuildLayered(LayeredConfig{LayerSizes: []int{4, 0}}); err == nil {
		t.Error("zero-size layer should fail")
	}
}

func TestBuildAcyclicIsTree(t *testing.T) {
	ov, err := BuildAcyclic(AcyclicConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Tree: exactly n-1 undirected links = 2(n-1) arcs.
	if got, want := len(ov.Graph.Arcs()), 2*(ov.Graph.N()-1); got != want {
		t.Errorf("arcs = %d, want %d", got, want)
	}
	// Exactly one path between any ingress and edge (tree property checked
	// via KShortestPaths returning a single loopless path).
	paths := ov.Graph.KShortestPaths(ov.Ingress[0], ov.Edges[0], 5)
	if len(paths) != 1 {
		t.Errorf("tree should have exactly 1 path, got %d", len(paths))
	}
}

func TestBuildAcyclicRejectsBadConfig(t *testing.T) {
	if _, err := BuildAcyclic(AcyclicConfig{Brokers: 8, Ingress: 6, EdgeCount: 6}); err == nil {
		t.Error("overlapping roles should fail")
	}
	if _, err := BuildAcyclic(AcyclicConfig{Brokers: 1, Ingress: 1, EdgeCount: 1}); err == nil {
		t.Error("too-small tree should fail")
	}
}

func TestBuildMeshConnectedWithChords(t *testing.T) {
	ov, err := BuildMesh(MeshConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ov.Graph.Arcs()); got <= 2*(ov.Graph.N()-1) {
		t.Errorf("mesh should have chords beyond the tree: %d arcs", got)
	}
	if err := ov.Validate(); err != nil {
		t.Errorf("mesh should validate: %v", err)
	}
}

func TestOverlayValidateCatchesUnreachable(t *testing.T) {
	g := NewGraph(3)
	_ = g.AddLink(0, 1, rate(50))
	ov := &Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{2}}
	if err := ov.Validate(); err == nil {
		t.Error("unreachable edge broker should fail validation")
	}
}

func TestOverlayJSONRoundTrip(t *testing.T) {
	ov, err := BuildLayered(LayeredConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ov.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.N() != ov.Graph.N() || got.Name != ov.Name {
		t.Fatal("basic fields lost")
	}
	if len(got.Ingress) != len(ov.Ingress) || len(got.Edges) != len(ov.Edges) {
		t.Fatal("roles lost")
	}
	for _, arc := range ov.Graph.Arcs() {
		want, _ := ov.Graph.Rate(arc[0], arc[1])
		gotRate, ok := got.Graph.Rate(arc[0], arc[1])
		if !ok || gotRate != want {
			t.Fatalf("arc %v rate mismatch: %v vs %v", arc, gotRate, want)
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`{"nodes":0}`)); err == nil {
		t.Error("zero nodes should fail")
	}
}

// TestSortedArcs: SortedArcs orders every arc by (from, to), whatever
// order the links went in; Arcs keeps insertion order.
func TestSortedArcs(t *testing.T) {
	g := NewGraph(4)
	r := stats.Normal{Mean: 10, Sigma: 1}
	for _, l := range [][2]msg.NodeID{{2, 3}, {0, 2}, {0, 1}, {1, 3}} {
		if err := g.AddLink(l[0], l[1], r); err != nil {
			t.Fatal(err)
		}
	}
	want := [][2]msg.NodeID{{0, 1}, {0, 2}, {1, 0}, {1, 3}, {2, 0}, {2, 3}, {3, 1}, {3, 2}}
	if got := g.SortedArcs(); !slices.Equal(got, want) {
		t.Errorf("SortedArcs = %v, want %v", got, want)
	}
	if got := g.Arcs(); slices.Equal(got, want) {
		t.Errorf("Arcs = %v, already sorted: the check proves nothing", got)
	}
}
