package livenet

import (
	"net"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// armCountConn swallows writes and counts SetWriteDeadline calls.
type armCountConn struct {
	discardConn
	arms int
	last time.Time
}

func (c *armCountConn) SetWriteDeadline(t time.Time) error {
	c.arms++
	c.last = t
	return nil
}

// TestWriteDeadlineArmedOncePerSecond pins the deadline's cadence: every
// write keeps a deadline at least writeTimeout − armEvery ahead, but
// back-to-back writes re-arm it once, not once each — and a connection
// swapped in underneath starts unarmed.
func TestWriteDeadlineArmedOncePerSecond(t *testing.T) {
	first := &armCountConn{}
	pc := &peerConn{conn: first}
	frame, err := msg.AppendMessageFrame(nil, &msg.Message{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			_, err = pc.writeBuf(frame)
		case 1:
			wv := net.Buffers{frame, frame}
			_, err = pc.writeBuffers(&wv)
		case 2:
			err = pc.writeFrame(msg.FrameUnsubscribe, msg.AppendUnsubscribe(nil, msg.SubID(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took < armEvery && first.arms != 1 {
		t.Errorf("1000 writes in %v armed the deadline %d times, want once", took, first.arms)
	}
	if ahead := first.last.Sub(start); ahead < writeTimeout-armEvery || ahead > writeTimeout+armEvery {
		t.Errorf("deadline armed %v ahead, want about %v", ahead, writeTimeout)
	}

	second := &armCountConn{}
	if old := pc.swap(second); old != net.Conn(first) {
		t.Fatalf("swap returned %v, want the replaced connection", old)
	}
	if _, err := pc.writeBuf(frame); err != nil {
		t.Fatal(err)
	}
	if second.arms != 1 {
		t.Errorf("first write on a swapped connection armed its deadline %d times, want once", second.arms)
	}

	// An idle connection's deadline has lapsed into the past: the next
	// write re-arms it.
	pc.deadline.armed = pc.deadline.armed.Add(-armEvery)
	if _, err := pc.writeBuf(frame); err != nil {
		t.Fatal(err)
	}
	if second.arms != 2 {
		t.Errorf("a write %v after the last arm left the deadline alone (%d arms)", armEvery, second.arms)
	}
}

// publishN publishes k small messages with a roomy bound.
func publishN(t *testing.T, p *Publisher, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": float64(i)}), 1, 5*vtime.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// sendMark is the link sequence node n has reached toward neighbor to (0
// when the link has no sender state).
func sendMark(n *Node, to msg.NodeID) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	sender, ok := n.linkSenders[to]
	if !ok {
		return 0
	}
	return sender.Mark()
}

// rejectStale runs one data-frame epoch from a neighbor through the
// stale check of a link's receiving half, as readLoop does: true (and
// counted in StaleEpochFrames) when the neighbor has announced a newer
// incarnation.
func (n *Node) rejectStale(peer msg.NodeID, e uint32) bool {
	lr := runtime.NewLinkRecv(0, nodeCount{n})
	return lr.Stale(e, n.epochFloor(peer))
}

// TestCleanLinkSendsSequencedData pins the one link path from the wire: a
// node configured with no loss adversary relays every message as
// FrameData, numbered consecutively from 1, base never above seq,
// stamped with the node's incarnation epoch — to a neighbor that is a
// bare listener and never writes a byte back.
func TestCleanLinkSendsSequencedData(t *testing.T) {
	const k = 20
	n, peer, pub := linkSenderNode(t, NodeConfig{TimeScale: 1e-9, Epoch: 3})
	publishN(t, pub, k)
	for want := uint64(1); want <= k; want++ {
		a := peer.next(t)
		if a.ft != msg.FrameData {
			t.Fatalf("frame %d: type %#x on a broker link, want FrameData (%#x)", want, a.ft, msg.FrameData)
		}
		if a.seq != want || a.base > a.seq || a.base == 0 {
			t.Fatalf("frame %d: seq %d base %d, want consecutive sequences with 0 < base ≤ seq", want, a.seq, a.base)
		}
		if a.epoch != 3 {
			t.Fatalf("frame %d: epoch %d, want the node's (3)", want, a.epoch)
		}
	}
	if got := sendMark(n, 1); got != k {
		t.Errorf("send mark after %d frames = %d", k, got)
	}
}

// TestReconnectContinuesLinkSequence: swapping the wire under a link
// (the neighbor was reborn on a new port) leaves the sequence where it
// was, and the first frame on the new connection announces itself with
// base == seq — what lets a fresh receive cursor follow it.
func TestReconnectContinuesLinkSequence(t *testing.T) {
	n, peer, pub := linkSenderNode(t, NodeConfig{TimeScale: 1e-9})
	publishN(t, pub, 3)
	for i := 0; i < 3; i++ {
		peer.next(t)
	}
	reborn := newRecordingPeer(t)
	if err := n.ReconnectPeer(1, reborn.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	publishN(t, pub, 1)
	if a := reborn.next(t); a.ft != msg.FrameData || a.seq != 4 || a.base != 4 {
		t.Errorf("first frame after the reconnect: type %#x seq %d base %d, want FrameData 4/4", a.ft, a.seq, a.base)
	}
}

// durableTinyCluster is the three-broker chain with a state directory
// per broker, a match-all subscriber at the edge and a publisher at the
// ingress.
func durableTinyCluster(t *testing.T) (*Cluster, *Subscriber, *Publisher) {
	t.Helper()
	c, err := StartCluster(ClusterConfig{
		Overlay: tinyOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: 0.002, Seed: 1, StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	s, err := DialSubscriber(c.Addr(2), &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	time.Sleep(100 * time.Millisecond) // subscription flood (logged to the WAL)
	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return c, s, p
}

// TestRebornNeighborProcessesFirstFrameAtOnce is the receiving half of a
// reconnect, on clean links: broker 1 is crashed and reborn from its log
// after three relayed messages. Broker 0's link sequence carries on at 4
// toward a receive cursor that starts at 1 — and the frame's base moves
// that cursor, so the message is delivered at once, not parked as an
// out-of-order arrival until a reorder window of frames has piled up.
func TestRebornNeighborProcessesFirstFrameAtOnce(t *testing.T) {
	c, s, p := durableTinyCluster(t)
	got := make(map[msg.ID]bool)
	publishN(t, p, 3)
	collectDeliveries(t, s, got, 3, 10*time.Second)

	if _, err := c.RestartNode(1, nil); err != nil {
		t.Fatal(err)
	}
	publishN(t, p, 1)
	collectDeliveries(t, s, got, 4, 5*time.Second)
	if mark := sendMark(c.Node(0), 1); mark != 4 {
		t.Errorf("broker 0's send mark toward the reborn neighbor = %d, want 4 (the sequence continues)", mark)
	}
	if st := c.TotalStats(); st.ReorderedHealed != 0 || st.DupsSuppressed != 0 {
		t.Errorf("a clean reconnect healed %d reordered frames and suppressed %d duplicates, want none",
			st.ReorderedHealed, st.DupsSuppressed)
	}
}

// TestCleanLinkRejectsStaleEpoch: with no loss configured anywhere, a
// frame older than the epoch its sender's Hello announced is a dead
// incarnation's — dropped and counted StaleEpochFrames, as on every
// simulated link — and the wire totals still balance.
func TestCleanLinkRejectsStaleEpoch(t *testing.T) {
	c, s, p := durableTinyCluster(t)
	// Broker 1 hears that broker 0 has been reborn at epoch 1; the real
	// broker 0 is still the epoch-0 incarnation.
	conn, err := net.Dial("tcp", c.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := msg.WriteFrame(conn, msg.FrameHello, msg.AppendHello(nil, msg.RoleBroker, 0, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.Node(1).rejectStale(0, 0) {
		if time.Now().After(deadline) {
			t.Fatal("broker 1 never registered the announced epoch")
		}
		time.Sleep(time.Millisecond)
	}
	probes := c.Node(1).Stats().StaleEpochFrames // the polls above count too

	publishN(t, p, 2)
	if err := c.WaitIdle(2, time.Until(deadline)); err != nil {
		t.Fatal(err)
	}
	st := c.Node(1).Stats()
	if got := st.StaleEpochFrames - probes; got != 2 {
		t.Errorf("stale-epoch frames at broker 1 = %d, want 2", got)
	}
	if st.Receptions != 0 {
		t.Errorf("broker 1 processed %d frames of the dead incarnation", st.Receptions)
	}
	if m, err := s.Receive(50 * time.Millisecond); err == nil {
		t.Errorf("message %d reached the subscriber through a stale link", m.ID)
	}
}

// TestCheckpointRecordsEveryLinkMark: the durable checkpoint holds a send
// watermark for every outgoing link, clean ones included, and a reborn
// incarnation resumes each link from it.
func TestCheckpointRecordsEveryLinkMark(t *testing.T) {
	c, s, p := durableTinyCluster(t)
	publishN(t, p, 3)
	collectDeliveries(t, s, make(map[msg.ID]bool), 3, 10*time.Second)
	c.Node(1).Drain() // planned restart: checkpoint, then stop
	n, err := c.RestartNode(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := n.Restarted()
	if len(st.Marks) != 2 {
		t.Fatalf("checkpoint recorded marks %v, want one per link of broker 1 (0 and 2)", st.Marks)
	}
	// Only 1→2 carried the three messages; 1→0 carried none.
	if st.Marks[2] != 3 || st.Marks[0] != 0 {
		t.Errorf("recovered marks %v, want 2:3 and 0:0", st.Marks)
	}
	if got := sendMark(n, 2); got != 3 {
		t.Errorf("reborn broker resumes its link to 2 at %d, want 3", got)
	}
}
