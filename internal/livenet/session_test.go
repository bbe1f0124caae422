package livenet

import (
	"fmt"
	"net"
	grt "runtime"
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

// atShards runs a session test at one ingress worker and at four.
func atShards(t *testing.T, test func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { test(t, shards) })
	}
}

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
func TestSessionResumeUnderLoss(t *testing.T) { atShards(t, testSessionResumeUnderLoss) }

func testSessionResumeUnderLoss(t *testing.T, shards int) {
	baseline := grt.NumGoroutine()

	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		Shards:    shards,
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

	// Drop again and resume mid-stream: publications keep arriving while
	// the broker reattaches and replays, so live deliveries race the
	// replay for the new connection. The subscriber must see every
	// sequence past its token exactly once, in order — a live frame that
	// overtook the replay would show up here as a jump and a step back.
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
			time.Sleep(time.Millisecond)
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
	atShards(t, testSessionResumeAcrossBrokerRestart)
}

func testSessionResumeAcrossBrokerRestart(t *testing.T, shards int) {
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		Shards:    shards,
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
	c.Node(2).Crash()
	n, err := c.RestartNode(2, nil)
	if err != nil {
		t.Fatal(err)
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
func TestRestartResumeSoak(t *testing.T) { atShards(t, testRestartResumeSoak) }

func testRestartResumeSoak(t *testing.T, shards int) {
	baseline := grt.NumGoroutine()

	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
		Shards:    shards,
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
func TestSessionRingBounded(t *testing.T) { atShards(t, testSessionRingBounded) }

func testSessionRingBounded(t *testing.T, shards int) {
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 1e-9, // pacing off: this is a volume test
		Seed:      1,
		Shards:    shards,
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
	deadline := time.Now().Add(10 * time.Second)
	for !c.Quiescent(over) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not quiesce:\n%s", c.LoadReport())
		}
		time.Sleep(5 * time.Millisecond)
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
