package routing

import "bdps/internal/msg"

// Grouper buckets matched entries by next hop without allocating: the
// hop list and the per-hop buckets are reused across calls. It produces
// hops sorted ascending and bucket contents in input (Match) order, which
// TestGrouperMatchesGroupByNext checks against a map-based oracle.
//
// A Grouper is single-owner scratch state: brokers embed one and call it
// under their own serialization (the simulator is single-threaded, the
// live node holds its mutex).
type Grouper struct {
	hops    []msg.NodeID
	buckets [][]*Entry
}

// Group buckets entries by Entry.Next. Local deliveries come back under
// msg.None. The returned slices are owned by the Grouper and valid until
// the next Group call.
func (g *Grouper) Group(entries []*Entry) (hops []msg.NodeID, buckets [][]*Entry) {
	g.hops = g.hops[:0]
	for i := range g.buckets {
		g.buckets[i] = g.buckets[i][:0]
	}
	for _, e := range entries {
		slot := -1
		// Linear scan: the hop count is bounded by the broker's degree
		// (single digits), where scanning beats any map.
		for j, h := range g.hops {
			if h == e.Next {
				slot = j
				break
			}
		}
		if slot < 0 {
			slot = len(g.hops)
			g.hops = append(g.hops, e.Next)
			if slot == len(g.buckets) {
				g.buckets = append(g.buckets, nil)
			}
		}
		g.buckets[slot] = append(g.buckets[slot], e)
	}
	// Insertion-sort hops and buckets in tandem (hops are distinct).
	for i := 1; i < len(g.hops); i++ {
		for j := i; j > 0 && g.hops[j] < g.hops[j-1]; j-- {
			g.hops[j], g.hops[j-1] = g.hops[j-1], g.hops[j]
			g.buckets[j], g.buckets[j-1] = g.buckets[j-1], g.buckets[j]
		}
	}
	return g.hops, g.buckets[:len(g.hops)]
}
