package livenet

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/workload"
)

// yOverlay is fanout_match's shape: a hub (1) with three leaves, every
// leaf both an ingress and an edge.
func yOverlay(t testing.TB) *topology.Overlay {
	t.Helper()
	g := topology.NewGraph(4)
	for _, leaf := range []msg.NodeID{0, 2, 3} {
		if err := g.AddLink(1, leaf, stats.Normal{Mean: 20, Sigma: 2}); err != nil {
			t.Fatal(err)
		}
	}
	return &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0, 2, 3}, Edges: []msg.NodeID{0, 2, 3}}
}

// frameTally counts the frames written on a set of links, by link and
// frame type.
type frameTally struct {
	mu sync.Mutex
	n  map[[3]int]int // from, to, frame type
}

func (ft *frameTally) count(from, to msg.NodeID, typ byte) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.n[[3]int{int(from), int(to), int(typ)}]
}

func (ft *frameTally) total(typ byte) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	sum := 0
	for k, v := range ft.n {
		if k[2] == int(typ) {
			sum += v
		}
	}
	return sum
}

// countingConn tallies every frame written through it (writes carry
// whole frames: one per writeFrame, a run of them per burst).
type countingConn struct {
	net.Conn
	from, to msg.NodeID
	tally    *frameTally
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.tally.mu.Lock()
	for off := 0; off+8 <= len(b); off += 8 + int(binary.BigEndian.Uint32(b[off+4:])) {
		c.tally.n[[3]int{int(c.from), int(c.to), int(b[off+3])}]++
	}
	c.tally.mu.Unlock()
	return c.Conn.Write(b)
}

// tallyLinks wraps every outgoing link of the cluster in a countingConn.
func tallyLinks(c *Cluster) *frameTally {
	ft := &frameTally{n: make(map[[3]int]int)}
	for id, n := range c.Nodes {
		n.mu.Lock()
		for to, pc := range n.peers {
			pc.mu.Lock()
			pc.conn = &countingConn{Conn: pc.conn, from: id, to: to, tally: ft}
			pc.mu.Unlock()
		}
		n.mu.Unlock()
	}
	return ft
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFloodSkipsArrivalLink: on the Y, one subscription injected at a
// leaf and withdrawn again costs one subscribe and one unsubscribe frame
// per overlay link it must cross — 2 × 3 — and no echo back over the
// link a flood arrived on: every broker but the origin receives each
// frame once, and the origin receives none.
func TestFloodSkipsArrivalLink(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay: yOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: 1e-6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ft := tallyLinks(c)

	const origin = msg.NodeID(2)
	s := &msg.Subscription{ID: 77, Edge: origin, Filter: filter.MustParse("A1 > 1 && A1 < 2 && A2 < 3")}
	c.Nodes[origin].Subscribe(s)
	waitFor(t, "the subscribe flood", func() bool {
		for _, n := range c.Nodes {
			n.mu.RLock()
			seen := n.seenSubs[s.ID]
			n.mu.RUnlock()
			if !seen {
				return false
			}
		}
		return true
	})
	c.Nodes[origin].Unsubscribe(s.ID)
	waitFor(t, "the unsubscribe flood", func() bool {
		for _, n := range c.Nodes {
			n.mu.RLock()
			gone := n.removedSubs.has(s.ID)
			n.mu.RUnlock()
			if !gone {
				return false
			}
		}
		return true
	})
	// An echo would be written after its writer tombstoned the id: give
	// one the time to show.
	time.Sleep(100 * time.Millisecond)

	for _, typ := range []byte{msg.FrameSubscribe, msg.FrameUnsubscribe} {
		if got := ft.total(typ); got != 3 {
			t.Errorf("frame type %d: %d frames on the Y, want 3 (one per link)", typ, got)
		}
		for _, link := range [][2]msg.NodeID{{origin, 1}, {1, 0}, {1, 3}} {
			if got := ft.count(link[0], link[1], typ); got != 1 {
				t.Errorf("frame type %d: %d frames %d→%d, want 1", typ, got, link[0], link[1])
			}
		}
		if got := ft.count(1, origin, typ); got != 0 {
			t.Errorf("frame type %d: the origin received %d frames, want 0", typ, got)
		}
	}
}

// fakeNeighbor is one real node (1) whose only overlay neighbor (0) is
// played by the test: conn is node 1's dialed link to it, which carries
// whatever node 1 floods; in is the test's own broker connection into
// node 1.
type fakeNeighbor struct {
	n    *Node
	conn net.Conn
	in   net.Conn
}

func startFakeNeighbor(t *testing.T) *fakeNeighbor {
	t.Helper()
	g := topology.NewGraph(2)
	if err := g.AddLink(0, 1, stats.Normal{Mean: 20, Sigma: 2}); err != nil {
		t.Fatal(err)
	}
	ov := &topology.Overlay{Graph: g, Ingress: []msg.NodeID{1}, Edges: []msg.NodeID{0}}
	n, err := NewNode(NodeConfig{ID: 1, Plan: barePlan(t, ov, core.MaxEB{}), TimeScale: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	if err := n.ConnectPeers(map[msg.NodeID]string{0: ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	f := &fakeNeighbor{n: n, conn: <-accepted}
	if f.conn == nil {
		t.Fatal("node 1 never dialed its neighbor")
	}
	t.Cleanup(func() { f.conn.Close() })
	if ft, _, err := msg.ReadFrame(f.conn); err != nil || ft != msg.FrameHello {
		t.Fatalf("node 1's first frame: type %d, err %v", ft, err)
	}
	if f.in, err = net.Dial("tcp", addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.in.Close() })
	f.send(t, msg.FrameHello, msg.AppendHello(nil, msg.RoleBroker, 0, 0))
	return f
}

func (f *fakeNeighbor) send(t *testing.T, typ byte, body []byte) {
	t.Helper()
	if err := msg.WriteFrame(f.in, typ, body); err != nil {
		t.Fatal(err)
	}
}

func (f *fakeNeighbor) subscribe(t *testing.T, s *msg.Subscription) {
	t.Helper()
	body, err := msg.AppendSubscription(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	f.send(t, msg.FrameSubscribe, body)
}

// silent fails the test if node 1 writes anything to the fake neighbor
// within the window.
func (f *fakeNeighbor) silent(t *testing.T, window time.Duration) {
	t.Helper()
	if err := f.conn.SetReadDeadline(time.Now().Add(window)); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if n, err := f.conn.Read(b[:]); n > 0 || err == io.EOF {
		t.Fatalf("node 1 wrote to the link its flood arrived on (read %d bytes, err %v)", n, err)
	}
}

func (f *fakeNeighbor) installed(id msg.SubID) bool {
	f.n.mu.RLock()
	defer f.n.mu.RUnlock()
	return len(f.n.table.SubEntries(id, nil)) > 0
}

// TestFloodNotEchoedToSender: a subscription flooded in over a broker
// link is installed and flooded on, but never back to the neighbor it
// came from — here the node's only one, so nothing at all is written.
func TestFloodNotEchoedToSender(t *testing.T) {
	f := startFakeNeighbor(t)
	s := &msg.Subscription{ID: 5, Edge: 0, Filter: filter.MustParse("A1 < 4")}
	f.subscribe(t, s)
	waitFor(t, "the flood's install", func() bool { return f.installed(s.ID) })
	f.send(t, msg.FrameUnsubscribe, msg.AppendUnsubscribe(nil, s.ID))
	waitFor(t, "the unsubscribe", func() bool { return !f.installed(s.ID) })
	f.silent(t, 100*time.Millisecond)
}

// TestKnownSubscribeDropped: on a broker link, a subscribe flood whose
// id the node has seen or tombstoned changes nothing, even when it
// carries a different filter, and an undecodable one is dropped too; the
// connection carries on: a new id behind them still installs.
func TestKnownSubscribeDropped(t *testing.T) {
	f := startFakeNeighbor(t)
	seen := &msg.Subscription{ID: 10, Edge: 0, Filter: filter.MustParse("A1 < 4")}
	f.n.Subscribe(seen)
	gone := &msg.Subscription{ID: 11, Edge: 0, Filter: filter.MustParse("A1 < 5")}
	f.n.Subscribe(gone)
	f.n.Unsubscribe(gone.ID)
	// Injected here, those three flood out to the neighbor.
	for _, want := range []byte{msg.FrameSubscribe, msg.FrameSubscribe, msg.FrameUnsubscribe} {
		if typ, _, err := msg.ReadFrame(f.conn); err != nil || typ != want {
			t.Fatalf("node 1's flood: frame type %d, err %v, want type %d", typ, err, want)
		}
	}
	f.n.mu.RLock()
	before := f.n.table.SubEntries(seen.ID, nil)
	f.n.mu.RUnlock()

	for _, id := range []msg.SubID{seen.ID, gone.ID} {
		body := binary.BigEndian.AppendUint32(nil, uint32(id))
		f.send(t, msg.FrameSubscribe, append(body, 0xFF, 0xFE, 0xFD)) // undecodable
		f.subscribe(t, &msg.Subscription{ID: id, Edge: 0, Price: 9, Filter: filter.MustParse("B < 1 || C == 'x'")})
	}
	fresh := &msg.Subscription{ID: 12, Edge: 0, Filter: filter.MustParse("A1 > 1 && A1 < 2")}
	f.subscribe(t, fresh)
	waitFor(t, "the new id's install", func() bool { return f.installed(fresh.ID) })

	f.n.mu.RLock()
	after := f.n.table.SubEntries(seen.ID, nil)
	resurrected := f.n.table.SubEntries(gone.ID, nil)
	f.n.mu.RUnlock()
	if len(after) != len(before) || after[0] != before[0] || after[0].Sub != seen {
		t.Errorf("seen id %d: entries %v, want the original %v", seen.ID, after, before)
	}
	if len(resurrected) != 0 {
		t.Errorf("tombstoned id %d came back: %v", gone.ID, resurrected)
	}
}

// TestSubscribeRefusesUnencodable: a constructed filter the wire cannot
// carry (here a 256-byte attribute name) makes Subscribe fail, and
// nothing is installed or flooded: it is not installed at its edge while
// the other brokers never hear of it.
func TestSubscribeRefusesUnencodable(t *testing.T) {
	f := startFakeNeighbor(t)
	s := &msg.Subscription{ID: 20, Edge: 0, Filter: filter.Lt(strings.Repeat("n", 256), 1)}
	if err := f.n.Subscribe(s); !errors.Is(err, msg.ErrTooLarge) {
		t.Fatalf("Subscribe: err %v, want ErrTooLarge", err)
	}
	if f.installed(s.ID) {
		t.Error("the refused subscription was installed")
	}
	f.silent(t, 100*time.Millisecond)
}

// TestDeployRefusesUnencodableChurn: a plan whose churn schedule holds a
// subscribe event the wire cannot carry fails Deploy, before any broker
// starts, instead of being dropped by the churn driver mid-run.
func TestDeployRefusesUnencodableChurn(t *testing.T) {
	p := &runtime.Plan{SubEvents: []workload.SubEvent{
		{At: 5, Sub: &msg.Subscription{ID: 1, Filter: filter.Lt("A1", 1)}},
		{At: 6, Sub: &msg.Subscription{ID: 2, Filter: filter.Lt(strings.Repeat("n", 256), 1)}},
	}}
	if dep, err := (Transport{}).Deploy(p); !errors.Is(err, msg.ErrTooLarge) {
		if dep != nil {
			dep.Close()
		}
		t.Fatalf("Deploy: err %v, want ErrTooLarge", err)
	}
}

// TestDurableAdmissionRecoversTableOrder: a StateDir node logs each
// admission's own entries (through the table's per-subscription
// references, not a table walk); after 200 flooded subscriptions — some
// withdrawn again — a restart recovers the same entries in the same
// per-source slot order the live table had.
func TestDurableAdmissionRecoversTableOrder(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay: yOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: 1e-6, Seed: 1, StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	const hub = msg.NodeID(1)
	edges := []msg.NodeID{0, 2, 3}
	var ids []msg.SubID
	for i := 0; i < 200; i++ {
		s := &msg.Subscription{ID: msg.SubID(100 + i), Edge: edges[i%3], Deadline: float64(1000 + i),
			Filter: filter.And(filter.Gt("A1", float64(i)), filter.Lt("A1", float64(i)+0.5), filter.Lt("A2", float64(i%7)))}
		c.Nodes[s.Edge].Subscribe(s)
		ids = append(ids, s.ID)
	}
	for i := 0; i < 200; i += 9 {
		c.Nodes[edges[i%3]].Unsubscribe(ids[i])
	}
	waitFor(t, "the floods at the hub", func() bool {
		n := c.Nodes[hub]
		n.mu.RLock()
		defer n.mu.RUnlock()
		return len(n.seenSubs) == 200-23 && n.removedSubs.len() == 23
	})

	type row struct {
		sub              msg.SubID
		next             msg.NodeID
		hops, path       int32
		mean, sigma, ddl float64
		filter           string
	}
	snapshot := func(tb *routing.Table) map[msg.NodeID][]row {
		out := make(map[msg.NodeID][]row)
		for _, src := range tb.Sources() {
			for _, e := range tb.Entries(src) {
				out[src] = append(out[src], row{e.Sub.ID, e.Next, e.Hops, e.PathID,
					e.Rate.Mean, e.Rate.Sigma, e.Sub.Deadline, e.Sub.Filter.String()})
			}
		}
		return out
	}
	old := c.Nodes[hub]
	old.mu.RLock()
	want := snapshot(old.table)
	old.mu.RUnlock()

	reborn, err := c.RestartNode(hub, nil)
	if err != nil {
		t.Fatal(err)
	}
	reborn.mu.RLock()
	got := snapshot(reborn.table)
	reborn.mu.RUnlock()
	if len(got) != len(want) {
		t.Fatalf("recovered %d sources, want %d", len(got), len(want))
	}
	for src, rows := range want {
		if len(got[src]) != len(rows) {
			t.Fatalf("source %d: recovered %d entries, want %d", src, len(got[src]), len(rows))
		}
		for i := range rows {
			if got[src][i] != rows[i] {
				t.Fatalf("source %d slot %d: recovered %+v, want %+v", src, i, got[src][i], rows[i])
			}
		}
	}
}

// TestWriteFrameAllocs: a control frame is framed in the connection's
// own buffer — writeFrame allocates nothing once that buffer has grown.
func TestWriteFrameAllocs(t *testing.T) {
	pc := &peerConn{conn: discardConn{}}
	body, err := msg.AppendSubscription(nil, &msg.Subscription{ID: 3, Edge: 1,
		Filter: filter.MustParse("A1 > 0.3 && A1 < 0.34 && A2 < 0.7")})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := pc.writeFrame(msg.FrameSubscribe, body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("writeFrame: %v allocs, want 0", n)
	}
}
