package livenet

import (
	"bytes"
	"net"
	"path/filepath"
	grt "runtime"
	"sync"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// collectDeliveries drains the subscriber into ids until want distinct
// messages arrived or the deadline passes, asserting every delivery is
// unique and within its bound.
func collectDeliveries(t *testing.T, s *Subscriber, ids map[msg.ID]bool, want int, deadline time.Duration) {
	t.Helper()
	until := time.Now().Add(deadline)
	for len(ids) < want {
		m, err := s.Receive(time.Until(until))
		if err != nil {
			t.Fatalf("after %d of %d deliveries: %v", len(ids), want, err)
		}
		if ids[m.ID] {
			t.Fatalf("message %d delivered twice: resume must be exactly-once", m.ID)
		}
		if !s.Valid(m, msg.PSD) {
			t.Fatalf("message %d delivered past its bound: a resumed session must never replay late", m.ID)
		}
		ids[m.ID] = true
	}
}

// The session tests each run as one subtest, "shards=1": the name they
// carried when the ingress worker count was a parameter of the test.
// Every read loop now processes its own messages, so there is one
// configuration to run, and the subtest keeps each case's name stable.

// resumeSeqs reattaches a session over a bare connection — hello, then
// the resume token — and returns the session sequence of every FrameData
// the broker sends until `last` arrives.
func resumeSeqs(t *testing.T, addr string, tok ResumeToken, last uint64) []uint64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := msg.AppendHello(nil, msg.RoleSubscriber, msg.NodeID(tok.Sub), 0)
	if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := msg.WriteFrame(conn, msg.FrameResume, msg.AppendResume(nil, tok.Sub, tok.LastSeq)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var seqs []uint64
	for {
		ft, body, err := msg.ReadFrame(conn)
		if err != nil {
			t.Fatalf("after %d resumed frames (want up to seq %d): %v", len(seqs), last, err)
		}
		if ft != msg.FrameData {
			continue
		}
		seq, _, _, _, err := msg.DecodeDataHeader(body)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
		if seq >= last {
			return seqs
		}
	}
}

// TestSessionResumeUnderLoss is the client-facing half of session
// resumption, on a lossy network: a real subscriber receives a prefix of
// the stream, drops its connection mid-run while publications continue
// against the per-link loss/dup adversary, then reattaches with its
// resume token. The edge broker replays the retained window and the
// client's cursor dedups the seam — across the whole run every published
// message arrives exactly once, none past its bound, and the cluster
// shuts down without leaking a goroutine. A second resume, taken while
// publications keep arriving, must see the replayed window and the live
// deliveries behind it as one gapless run of session sequences.
func TestSessionResumeUnderLoss(t *testing.T) { t.Run("shards=1", testSessionResumeUnderLoss) }

func testSessionResumeUnderLoss(t *testing.T) {
	baseline := grt.NumGoroutine()

	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		// The same deterministic adversary the crossval tests use: every
		// arc drops a fifth of its frames and duplicates a twentieth; the
		// reliable channel retransmits and dedups underneath the session.
		LinkLoss: &runtime.LinkLoss{From: msg.None, To: msg.None, Rate: 0.2, Dup: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // subscription flood

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})
	publish := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			// A generous bound: loss retries must never push a delivery
			// past it, so "zero late deliveries" is asserted absolutely.
			if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	got := make(map[msg.ID]bool)
	publish(10)
	collectDeliveries(t, s, got, 10, 10*time.Second)

	// The session drops: the subscriber's connection dies, but the broker
	// keeps matching — deliveries land in the session's replay ring.
	tok := s.Token()
	s.Close()
	publish(10)
	time.Sleep(300 * time.Millisecond) // let the in-flight tail reach the ring

	// Resume: the broker replays the retained window past the token; the
	// client cursor drops anything it already saw.
	r, err := ResumeSubscriber(c.Addr(2), sub, tok)
	if err != nil {
		t.Fatal(err)
	}
	collectDeliveries(t, r, got, 20, 10*time.Second)

	// The resumed session keeps receiving live traffic after the replay.
	publish(5)
	collectDeliveries(t, r, got, 25, 10*time.Second)

	// Drop again and resume mid-stream: publications keep arriving — in
	// back-to-back fours, so the edge has multi-delivery batches waiting
	// in the ring for their flush — while the broker reattaches and
	// replays, so live deliveries race the replay for the new connection.
	// The subscriber must see every sequence past its token exactly once,
	// in order: a live frame that overtook the replay would show up here
	// as a jump and a step back, a batch both replayed and flushed as a
	// repeat.
	tok = r.Token()
	r.Close()
	const during = 60 // well inside the ring window
	half := make(chan struct{})
	go func() {
		for i := 0; i < during; i++ {
			if i == during/2 {
				close(half)
			}
			if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
				t.Error(err)
				return
			}
			if i%4 == 3 {
				time.Sleep(4 * time.Millisecond)
			}
		}
	}()
	<-half
	for i, seq := range resumeSeqs(t, c.Addr(2), tok, tok.LastSeq+during) {
		if want := tok.LastSeq + 1 + uint64(i); seq != want {
			t.Fatalf("resumed frame %d carries session sequence %d, want %d: replay and live deliveries must form one gapless run", i, seq, want)
		}
	}

	total := c.TotalStats()
	if total.ReplayedMsgs == 0 {
		t.Error("edge broker replayed nothing: deliveries during the outage should come from the ring")
	}
	if total.SessionsResumed != 2 {
		t.Errorf("sessions resumed = %d, want 2", total.SessionsResumed)
	}
	if total.FramesLost == 0 {
		t.Error("adversary lost nothing: the loss path was not exercised")
	}

	c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for grt.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := grt.Stack(buf, true)
			t.Fatalf("goroutines leaked after Stop: %d > baseline %d\n%s",
				grt.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionResumeAcrossBrokerRestart drives the full crash-restart
// story with real clients: the edge broker crashes (taking the replay
// ring and the subscriber's connection with it), restarts warm from its
// WAL, and the client reattaches with its resume token against the new
// incarnation. The recovered routing table must keep matching without
// any re-subscription, and the seam stays exactly-once.
func TestSessionResumeAcrossBrokerRestart(t *testing.T) {
	t.Run("shards=1", testSessionResumeAcrossBrokerRestart)
}

func testSessionResumeAcrossBrokerRestart(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // subscription flood (logged to the WAL)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})

	got := make(map[msg.ID]bool)
	for i := 0; i < 5; i++ {
		if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	collectDeliveries(t, s, got, 5, 10*time.Second)

	// Crash the edge: the subscriber's session dies with it.
	tok := s.Token()
	s.Close()
	oldEpoch := c.Node(2).Epoch()
	validBefore := c.TotalStats().ValidDeliveries
	c.Node(2).Crash()
	n, err := c.RestartNode(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The cluster's totals keep the replaced incarnation's counters.
	if v := c.TotalStats().ValidDeliveries; v < validBefore {
		t.Errorf("TotalStats valid deliveries %d after restart, %d before the crash", v, validBefore)
	}
	if st, ok := n.Restarted(); !ok || len(st.Entries) == 0 {
		t.Fatal("restarted edge recovered no durable entries")
	}
	if n.Epoch() <= oldEpoch {
		t.Errorf("epoch did not advance across restart: %d → %d", oldEpoch, n.Epoch())
	}

	// Resume against the new incarnation: the ring died with the crash,
	// so nothing replays, but the recovered table keeps matching and the
	// resumed session receives everything published from here on.
	r, err := ResumeSubscriber(c.Addr(2), sub, tok)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	time.Sleep(100 * time.Millisecond) // resume handshake
	for i := 0; i < 5; i++ {
		if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	collectDeliveries(t, r, got, 10, 10*time.Second)

	if n := c.Node(2).Stats().SessionsResumed; n != 1 {
		t.Errorf("sessions resumed at the new incarnation = %d, want 1", n)
	}
}

// TestRestartResumeSoak cycles the edge broker through five
// crash→restart→resume rounds on one WAL. Every round must recover the
// routing state from the log, reattach the same client session under a
// strictly rising incarnation epoch, and deliver the round's traffic
// exactly once; after the final Stop the goroutine count returns to the
// pre-cluster baseline — five rebirths leak nothing.
func TestRestartResumeSoak(t *testing.T) { t.Run("shards=1", testRestartResumeSoak) }

func testRestartResumeSoak(t *testing.T) {
	baseline := grt.NumGoroutine()

	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		StateRoot: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // subscription flood (logged to the WAL)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})

	got := make(map[msg.ID]bool)
	epoch := c.Node(2).Epoch()
	for round := 1; round <= 5; round++ {
		tok := s.Token()
		s.Close()
		c.Node(2).Crash()
		n, err := c.RestartNode(2, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st, ok := n.Restarted(); !ok || len(st.Entries) == 0 {
			t.Fatalf("round %d: restarted edge recovered no durable entries", round)
		}
		if e := n.Epoch(); e <= epoch {
			t.Fatalf("round %d: epoch did not advance: %d → %d", round, epoch, e)
		} else {
			epoch = e
		}
		s, err = ResumeSubscriber(c.Addr(2), sub, tok)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		time.Sleep(100 * time.Millisecond) // resume handshake
		for i := 0; i < 3; i++ {
			if _, err := p.Publish(0, attrs, 1, 5*vtime.Minute, nil); err != nil {
				t.Fatal(err)
			}
		}
		collectDeliveries(t, s, got, 3*round, 10*time.Second)
	}
	s.Close()
	if n := len(got); n != 15 {
		t.Errorf("delivered %d distinct messages across 5 rounds, want 15", n)
	}

	c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for grt.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := grt.Stack(buf, true)
			t.Fatalf("goroutines leaked after 5 restart cycles: %d > baseline %d\n%s",
				grt.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionRingBounded pins the replay ring's memory bound: with far
// more deliveries retained than SessionRingLimit, a resume replays only
// the newest window — never an unbounded backlog.
func TestSessionRingBounded(t *testing.T) { t.Run("shards=1", testSessionRingBounded) }

func testSessionRingBounded(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 1e-9, // pacing off: this is a volume test
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if _, err := s.Receive(0); err == nil {
		t.Fatal("unexpected delivery before any publication")
	}
	tok := s.Token()
	s.Close()

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})
	over := runtime.SessionRingLimit + 100
	for i := 0; i < over; i++ {
		if _, err := p.Publish(0, attrs, 0.001, vtime.Hour, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce: every publication must have reached the edge's ring.
	if err := c.WaitIdle(over, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	r, err := ResumeSubscriber(c.Addr(2), sub, tok)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := 0
	for {
		if _, err := r.Receive(2 * time.Second); err != nil {
			break
		}
		got++
	}
	if got > runtime.SessionRingLimit {
		t.Errorf("resume replayed %d messages, want ≤ the ring bound %d", got, runtime.SessionRingLimit)
	}
	if got < runtime.SessionRingLimit/2 {
		t.Errorf("resume replayed only %d messages, want a full-ish ring (limit %d)", got, runtime.SessionRingLimit)
	}
	if n := c.Node(2).Stats().ReplayedMsgs; n != got {
		t.Errorf("broker counted %d replays, client saw %d", n, got)
	}
}

// packetPair returns the two ends of a connected SOCK_SEQPACKET unix
// socket. A packet socket keeps write boundaries — every write or writev
// the sender makes is one packet at the reader — so the reading end can
// count the system calls the edge spent on a subscriber, which no
// net.Conn wrapper can (net.Buffers only takes the writev path on the
// net package's own connection types). Skips where the platform has no
// such socket.
func packetPair(t testing.TB) (w, r net.Conn) {
	t.Helper()
	l, err := net.Listen("unixpacket", filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Skipf("no unixpacket sockets here: %v", err)
	}
	defer l.Close()
	w, err = net.Dial("unixpacket", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close(); r.Close() })
	return w, r
}

// dataPacket is one write of the edge as the subscriber end of a
// packetPair saw it: the session sequences it carried, and when.
type dataPacket struct {
	seqs []uint64
	at   time.Time
}

// readDataPackets reads packets from the subscriber end of a packetPair
// until `last` arrived.
func readDataPackets(t *testing.T, r net.Conn, last uint64) []dataPacket {
	t.Helper()
	_ = r.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1<<20)
	var packets []dataPacket
	for {
		n, err := r.Read(buf)
		if err != nil {
			t.Fatalf("after %d packets (want up to seq %d): %v", len(packets), last, err)
		}
		at := time.Now()
		var seqs []uint64
		for rd := bytes.NewReader(buf[:n]); rd.Len() > 0; {
			ft, body, err := msg.ReadFrame(rd)
			if err != nil || ft != msg.FrameData {
				t.Fatalf("packet %d: frame type %d, err %v", len(packets), ft, err)
			}
			seq, _, _, _, err := msg.DecodeDataHeader(body)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, seq)
		}
		packets = append(packets, dataPacket{seqs, at})
		if seqs[len(seqs)-1] >= last {
			return packets
		}
	}
}

// wantGaplessRun asserts the packets carry first, first+1, … last, each
// once and in order, in exactly `writes` packets.
func wantGaplessRun(t *testing.T, packets []dataPacket, first, last uint64, writes int) {
	t.Helper()
	var sizes []int
	next := first
	for _, p := range packets {
		sizes = append(sizes, len(p.seqs))
		for _, seq := range p.seqs {
			if seq != next {
				t.Fatalf("session sequence %d where %d was due (write %d of sizes %v so far)", seq, next, len(sizes), sizes)
			}
			next++
		}
	}
	if next != last+1 {
		t.Fatalf("run ended at %d, want %d", next-1, last)
	}
	if len(packets) != writes {
		t.Fatalf("%d deliveries took %d writes, want %d (frames per write: %v)", last-first+1, len(packets), writes, sizes)
	}
}

// startEdge starts the tiny chain and registers a match-all subscriber
// at broker 2, returning the edge node and the subscriber's session once
// the subscription's flood has reached the ingress broker.
func startEdge(t *testing.T, cfg ClusterConfig) (*Cluster, *Node, *session) {
	t.Helper()
	cfg.Overlay, cfg.Scenario, cfg.Strategy, cfg.Seed = tinyOverlay(t), msg.PSD, core.MaxEB{}, 1
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	s, err := DialSubscriber(c.Addr(2), &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	n, ingress := c.Node(2), c.Node(0)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n.mu.RLock()
		sess := n.sessions[1]
		n.mu.RUnlock()
		ingress.mu.RLock()
		routed := ingress.tableSub(1) != nil
		ingress.mu.RUnlock()
		if sess != nil && routed {
			return c, n, sess
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never reached the edge and the ingress")
		}
	}
}

// edgeMessage is publication i of publisher 0, entering at broker 0,
// with a bound no test outlives.
func edgeMessage(n *Node, i int) *msg.Message {
	return &msg.Message{
		ID: msg.MakeID(0, uint32(i)), Publisher: 0, Ingress: 0,
		Published: n.clock.Now(), Allowed: vtime.Hour, SizeKB: 1,
		Attrs: msg.NumAttrs(map[string]float64{"A1": float64(i)}),
	}
}

// writeAsUpstream plays broker 1 toward the edge: a broker hello, then
// the k publications as link data frames in a single conn.Write, which the
// edge's read loop takes in with one read and processes as one batch.
func writeAsUpstream(t *testing.T, c *Cluster, n *Node, k int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", c.Addr(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := msg.WriteFrame(conn, msg.FrameHello, msg.AppendHello(nil, msg.RoleBroker, 1, 0)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < k; i++ {
		if buf, err = msg.AppendDataFrame(buf, uint64(i+1), uint64(i+1), 0, edgeMessage(n, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestSessionBatchLeavesInOneWrite is the tentpole's contract: the
// deliveries of one ingress batch wait in the subscriber's ring and
// leave together — k publications arriving in one read reach the
// subscriber in order, numbered consecutively, in one write.
func TestSessionBatchLeavesInOneWrite(t *testing.T) {
	t.Run("shards=1", testSessionBatchLeavesInOneWrite)
}

func testSessionBatchLeavesInOneWrite(t *testing.T) {
	w, r := packetPair(t)
	c, n, sess := startEdge(t, ClusterConfig{TimeScale: 0.002})
	sess.attach(&peerConn{conn: w})

	const k = 16
	writeAsUpstream(t, c, n, k)
	wantGaplessRun(t, readDataPackets(t, r, k), 1, k, 1)

	// A batch of one is the single write it always was.
	writeAsUpstream(t, c, n, 1)
	wantGaplessRun(t, readDataPackets(t, r, k+1), k+1, k+1, 1)
}

// TestSessionBatchOverflowsRing has one worker process more deliveries
// for one session between two flushes than the ring has slots: the
// deliver that would reuse a still-unsent slot flushes first, so nothing
// is lost or overwritten, and the messages' hold on the quiescence
// counters is gone once the last frame is out.
func TestSessionBatchOverflowsRing(t *testing.T) { t.Run("shards=1", testSessionBatchOverflowsRing) }

func testSessionBatchOverflowsRing(t *testing.T) {
	w, r := packetPair(t)
	_, n, sess := startEdge(t, ClusterConfig{TimeScale: 0.002})
	sess.attach(&peerConn{conn: w})

	const over = runtime.SessionRingLimit + 44
	wk := &worker{proc: n.b.NewProcessor(), epoch: n.Epoch()}
	n.inflight.Add(over)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < over; i++ {
			n.process(wk, edgeMessage(n, i))
		}
		wk.flush(n)
	}()

	// The ring's worth leaves when slot 1 is about to be reused, the rest
	// at the flush.
	packets := readDataPackets(t, r, over)
	<-done
	wantGaplessRun(t, packets, 1, over, 2)
	if got := len(packets[0].seqs); got != runtime.SessionRingLimit {
		t.Errorf("first write carried %d frames, want the full ring (%d)", got, runtime.SessionRingLimit)
	}
	if got := n.inflight.Load(); got != 0 {
		t.Fatalf("hold not released by the flush: inflight=%d", got)
	}
}

// TestSessionResumeBetweenDeliverAndFlush lands a resume in the window
// the send buffer opens: deliveries retained, not yet flushed. The replay
// must put each on the new connection once and leave the pending flush
// nothing to repeat — without replay's `sent = seq` the flush writes them
// a second time and this test fails on the duplicate.
func TestSessionResumeBetweenDeliverAndFlush(t *testing.T) {
	t.Run("shards=1", testSessionResumeBetweenDeliverAndFlush)
}

func testSessionResumeBetweenDeliverAndFlush(t *testing.T) {
	c, n, sess := startEdge(t, ClusterConfig{TimeScale: 0.002})
	wk := &worker{epoch: n.Epoch()}
	const k = 5
	for i := 0; i < k; i++ {
		wk.m, wk.frame = edgeMessage(n, i), nil
		if owes := sess.deliver(wk, vtime.Hour); owes != (i == 0) {
			t.Fatalf("delivery %d: owes flush = %v; only the first of an unsent run does", i, owes)
		}
	}

	w, r := packetPair(t)
	n.handleResume(1, 0, &peerConn{conn: w})
	sess.flush(wk)

	// One more, through the whole path, marks the end of what the resume
	// and the flush wrote between them.
	writeAsUpstream(t, c, n, 1)
	wantGaplessRun(t, readDataPackets(t, r, k+1), 1, k+1, k+1) // replay writes frame by frame
	if got := n.Stats().ReplayedMsgs; got != k {
		t.Errorf("replayed %d, want %d", got, k)
	}
}

// gateConn is a subscriber connection whose writes wait for the test:
// entered is signalled when a Write arrives, and the Write returns once
// open is closed. It records what was written.
type gateConn struct {
	discardConn
	entered chan struct{}
	open    chan struct{}
	mu      sync.Mutex
	got     bytes.Buffer
}

func (g *gateConn) Write(p []byte) (int, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.open
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.got.Write(p)
}

// TestQuiescentWaitsForSessionFlush holds the edge's write to the
// subscriber and checks the cluster cannot read idle meanwhile: a batch
// keeps its hold on inflight until its deliveries are flushed, so a
// Quiescent poll that returns true means the subscriber's connection
// has been handed every delivery.
func TestQuiescentWaitsForSessionFlush(t *testing.T) {
	t.Run("shards=1", testQuiescentWaitsForSessionFlush)
}

func testQuiescentWaitsForSessionFlush(t *testing.T) {
	c, _, sess := startEdge(t, ClusterConfig{TimeScale: 1e-9})
	g := &gateConn{entered: make(chan struct{}, 1), open: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(g.open) }) }
	t.Cleanup(open) // a failing run must not leave the read loop in Write under c.Stop
	sess.attach(&peerConn{conn: g})

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	publish := func() {
		t.Helper()
		if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 0.001, vtime.Hour, nil); err != nil {
			t.Fatal(err)
		}
	}

	// One publication: once the edge is inside its write everything else
	// in the cluster has settled, so only the unflushed batch's hold
	// keeps Quiescent false.
	publish()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("the delivery never reached the subscriber's connection:\n%s", c.LoadReport())
	}
	for until := time.Now().Add(50 * time.Millisecond); time.Now().Before(until); time.Sleep(time.Millisecond) {
		if c.Quiescent(1) {
			t.Fatalf("cluster read quiescent with a delivery still unwritten:\n%s", c.LoadReport())
		}
	}
	open()

	publish()
	publish()
	for deadline := time.Now().Add(10 * time.Second); !c.Quiescent(3); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not quiesce:\n%s", c.LoadReport())
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for want := uint64(1); want <= 3; want++ {
		ft, body, err := msg.ReadFrame(&g.got)
		if err != nil || ft != msg.FrameData {
			t.Fatalf("quiescent, but delivery %d is not on the subscriber's connection (type %d, %v)", want, ft, err)
		}
		if seq, _, _, _, _ := msg.DecodeDataHeader(body); seq != want {
			t.Fatalf("delivery %d carries session sequence %d", want, seq)
		}
	}
}

// TestWorkerFlushesBeforeProcessingSleep gives the edge a processing
// delay long enough to be slept: the worker must not sit on the first
// message's delivery while it sleeps out the second's and third's.
func TestWorkerFlushesBeforeProcessingSleep(t *testing.T) {
	t.Run("shards=1", testWorkerFlushesBeforeProcessingSleep)
}

func testWorkerFlushesBeforeProcessingSleep(t *testing.T) {
	const sleep = 50 * time.Millisecond
	const scale = 0.002
	params := core.DefaultParams()
	params.PD = vtime.FromDuration(sleep) / scale
	w, r := packetPair(t)
	c, n, sess := startEdge(t, ClusterConfig{TimeScale: scale, Params: params})
	sess.attach(&peerConn{conn: w})

	// A three-message batch: sleep, deliver 1; flush, sleep, deliver 2;
	// flush, sleep, deliver 3; end of batch. Held to the end, all three
	// would arrive together.
	writeAsUpstream(t, c, n, 3)
	packets := readDataPackets(t, r, 3)
	wantGaplessRun(t, packets, 1, 3, 3)
	if gap := packets[2].at.Sub(packets[0].at); gap < 3*sleep/2 {
		t.Errorf("third delivery came %v after the first, want about two processing sleeps (%v): the first waited out the later sleeps", gap, 2*sleep)
	}
}
