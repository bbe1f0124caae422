package livenet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
)

// wireFrame is one frame seen on a link: its type and the id its body
// leads with (a subscription's or an unsubscribe's id, a heartbeat's
// sender).
type wireFrame struct {
	typ byte
	id  uint32
}

// wireLog stands in for a link's connection and records every Write: the
// frames each one carried, in wire order.
type wireLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]wireFrame
}

func (c *wireLog) Write(b []byte) (int, error) {
	var frames []wireFrame
	for off := 0; off+8 <= len(b); {
		n := int(binary.BigEndian.Uint32(b[off+4:]))
		f := wireFrame{typ: b[off+3]}
		if n >= 4 && off+12 <= len(b) {
			f.id = binary.BigEndian.Uint32(b[off+8:])
		}
		frames = append(frames, f)
		off += 8 + n
	}
	c.mu.Lock()
	c.writes = append(c.writes, frames)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// ids returns, in wire order, the ids of the frames of one type whose id
// keep accepts.
func (c *wireLog) ids(typ byte, keep func(uint32) bool) []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint32
	for _, w := range c.writes {
		for _, f := range w {
			if f.typ == typ && keep(f.id) {
				out = append(out, f.id)
			}
		}
	}
	return out
}

// writesWith counts the writes that carried at least one frame of one
// type whose id keep accepts.
func (c *wireLog) writesWith(typ byte, keep func(uint32) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.writes {
		for _, f := range w {
			if f.typ == typ && keep(f.id) {
				n++
				break
			}
		}
	}
	return n
}

// logLink swaps a wireLog in under one of n's outgoing links.
func logLink(n *Node, to msg.NodeID) *wireLog {
	n.mu.RLock()
	pc := n.peers[to]
	n.mu.RUnlock()
	pc.mu.Lock()
	l := &wireLog{Conn: pc.conn}
	pc.mu.Unlock()
	pc.swap(l)
	return l
}

// appendFrame frames one body onto buf.
func appendFrame(t *testing.T, buf []byte, typ byte, body []byte) []byte {
	t.Helper()
	start := len(buf)
	buf = append(msg.BeginFrame(buf, typ), body...)
	if err := msg.EndFrame(buf, start); err != nil {
		t.Fatal(err)
	}
	return buf
}

// fanoutSub is one of fanout_match's subscriptions: a narrow A1 range
// and an A2 bound.
func fanoutSub(id msg.SubID, edge msg.NodeID) *msg.Subscription {
	a := float64(id%1000) / 1000
	return &msg.Subscription{ID: id, Edge: edge, Deadline: 1000,
		Filter: filter.MustParse(fmt.Sprintf("A1 > %g && A1 < %g && A2 < %g", a, a+0.04, float64(id%7)/7))}
}

// TestRelayedFloodsCoalesce: 500 subscribe frames that reach the Y's
// middle broker in one write leave it in a handful of writes per
// outgoing link, not one each, and every one of them crosses each link
// exactly once and in order — while the heartbeat goroutine and an API
// writer (Node.Unsubscribe) write on the same links.
func TestRelayedFloodsCoalesce(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay: yOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: 1e-6, Seed: 1, Heartbeat: HeartbeatConfig{Interval: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const hub = msg.NodeID(1)
	logs := map[msg.NodeID]*wireLog{2: logLink(c.Nodes[hub], 2), 3: logLink(c.Nodes[hub], 3)}

	// The test plays a second link from leaf 0 into the hub.
	in, err := net.Dial("tcp", c.Addr(hub))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := msg.WriteFrame(in, msg.FrameHello, msg.AppendHello(nil, msg.RoleBroker, 0, 0)); err != nil {
		t.Fatal(err)
	}
	const first, k = 1000, 500
	var batch []byte
	for i := 0; i < k; i++ {
		body, err := msg.AppendSubscription(nil, fanoutSub(msg.SubID(first+i), 0))
		if err != nil {
			t.Fatal(err)
		}
		batch = appendFrame(t, batch, msg.FrameSubscribe, body)
	}

	// The API writer: withdrawals of ids nobody subscribed flood at once
	// from the hub to every neighbor.
	const api, nAPI = 9000, 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nAPI; i++ {
			c.Nodes[hub].Unsubscribe(msg.SubID(api + i))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	if _, err := in.Write(batch); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	waitFor(t, "the relays at both leaves", func() bool {
		for _, leaf := range []msg.NodeID{2, 3} {
			n := c.Nodes[leaf]
			n.mu.RLock()
			seen := len(n.seenSubs)
			n.mu.RUnlock()
			if seen != k {
				return false
			}
		}
		return true
	})

	relayed := func(id uint32) bool { return id >= first && id < first+k }
	fromAPI := func(id uint32) bool { return id >= api && id < api+nAPI }
	for leaf, l := range logs {
		if got := l.writesWith(msg.FrameSubscribe, relayed); got >= 50 {
			t.Errorf("link 1→%d: the %d relays took %d writes, want < 50", leaf, k, got)
		}
		ids := l.ids(msg.FrameSubscribe, relayed)
		if len(ids) != k {
			t.Errorf("link 1→%d: %d relayed subscribe frames, want %d", leaf, len(ids), k)
		}
		for i, id := range ids {
			if id != uint32(first+i) {
				t.Fatalf("link 1→%d: relay %d carries id %d, want %d (each once, in order)", leaf, i, id, first+i)
			}
		}
		unsubs := l.ids(msg.FrameUnsubscribe, fromAPI)
		if len(unsubs) != nAPI {
			t.Errorf("link 1→%d: %d API unsubscribe frames, want %d", leaf, len(unsubs), nAPI)
		}
		for i, id := range unsubs {
			if id != uint32(api+i) {
				t.Fatalf("link 1→%d: API frame %d carries id %d, want %d", leaf, i, id, api+i)
			}
		}
	}
}

// TestQueuedControlFrameLeavesFirst: a control frame a read loop queued
// reaches the wire before a heartbeat or a Node.Unsubscribe frame written
// on the same link after it — an immediate write sends the queue ahead
// of its own frame — and the loop's idle flush then has nothing left.
func TestQueuedControlFrameLeavesFirst(t *testing.T) {
	f := startFakeNeighbor(t)
	n := f.n
	n.mu.RLock()
	pc := n.peers[0]
	n.mu.RUnlock()

	// What a read loop does with a flood from a client connection: queue
	// the relay for its idle flush.
	w := &worker{}
	relay := func(id msg.SubID) {
		s := fanoutSub(id, 1)
		body, err := msg.AppendSubscription(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		n.handleSubscribe(w, s, nil, body, msg.None)
	}
	relay(31)
	if err := pc.writeFrame(msg.FrameHeartbeat, msg.AppendHeartbeat(nil, n.ID(), n.Epoch())); err != nil {
		t.Fatal(err) // what heartbeatLoop writes
	}
	relay(32)
	n.Unsubscribe(32)
	want := []wireFrame{
		{msg.FrameSubscribe, 31}, {msg.FrameHeartbeat, uint32(n.ID())},
		{msg.FrameSubscribe, 32}, {msg.FrameUnsubscribe, 32},
	}
	if err := f.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i, wf := range want {
		typ, body, err := msg.ReadFrame(f.conn)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := (wireFrame{typ, binary.BigEndian.Uint32(body)}); got != wf {
			t.Fatalf("frame %d on the wire: %+v, want %+v", i, got, wf)
		}
	}
	w.flush(n)
	f.silent(t, 50*time.Millisecond)
}

// TestQueuedControlHoldsNoQuiescence: a relay queued on a link holds no
// inflight count — like a control frame being processed, it is invisible
// to Quiescent and Settled, so a node whose read loop never drains a
// churning subscriber's connection can still read idle — and the read
// loop's idle flush puts it on the wire.
func TestQueuedControlHoldsNoQuiescence(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay: yOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: 1e-6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	waitFor(t, "an idle cluster", func() bool { return c.Quiescent(0) })

	const hub = msg.NodeID(1)
	n := c.Nodes[hub]
	s := fanoutSub(40, 0)
	body, err := msg.AppendSubscription(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{}
	n.handleSubscribe(w, s, nil, body, 0) // relayed from leaf 0: queued toward 2 and 3
	for _, to := range []msg.NodeID{2, 3} {
		n.mu.RLock()
		pc := n.peers[to]
		n.mu.RUnlock()
		pc.mu.Lock()
		queued := len(pc.ctl)
		pc.mu.Unlock()
		if queued == 0 {
			t.Fatalf("link 1→%d: nothing queued", to)
		}
	}
	if !c.Quiescent(0) || !c.Settled() {
		t.Fatalf("a queued relay holds the cluster busy:\n%s", c.LoadReport())
	}
	w.flush(n)
	for _, leaf := range []msg.NodeID{2, 3} {
		waitFor(t, "the relay's install", func() bool {
			c.Nodes[leaf].mu.RLock()
			defer c.Nodes[leaf].mu.RUnlock()
			return c.Nodes[leaf].seenSubs[s.ID]
		})
	}
}

// TestControlBufferReleased: after a 10 000-subscription install on the
// Y no link holds a control buffer, and a burst of queued frames flushed
// again reuses the array the last burst gave back instead of growing a
// new buffer.
func TestControlBufferReleased(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay: yOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: 1e-6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	edges := []msg.NodeID{0, 2, 3}
	const k = 10000
	for i := 0; i < k; i++ {
		if err := c.Nodes[edges[i%3]].Subscribe(fanoutSub(msg.SubID(100+i), edges[i%3])); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the floods everywhere", func() bool {
		for _, n := range c.Nodes {
			n.mu.RLock()
			seen := len(n.seenSubs)
			n.mu.RUnlock()
			if seen != k {
				return false
			}
		}
		return c.Quiescent(0)
	})
	for id, n := range c.Nodes {
		n.mu.RLock()
		for to, pc := range n.peers {
			pc.mu.Lock()
			if pc.ctl != nil {
				t.Errorf("link %d→%d keeps a %d-byte control buffer (%d queued), want none", id, to, cap(pc.ctl), len(pc.ctl))
			}
			pc.mu.Unlock()
		}
		n.mu.RUnlock()
	}

	pc := &peerConn{conn: discardConn{}}
	body, err := msg.AppendSubscription(nil, fanoutSub(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	burst := func() {
		for i := 0; i < 200; i++ {
			pc.queueFrame(msg.FrameSubscribe, body)
		}
		pc.flushCtl()
	}
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Errorf("a burst of 200 queued frames: %v allocs, want 0", n)
	}
	if pc.ctl != nil {
		t.Errorf("a %d-byte control buffer survived its flush", cap(pc.ctl))
	}
}
