package livenet

import (
	"net"
	"sort"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

// arrival is one data-carrying frame as the recording peer saw it.
type arrival struct {
	at time.Time
	id msg.ID
	ft byte // frame type: FrameData on every broker link
	// The link header: sequence, lowest still-live sequence, sender epoch.
	seq, base uint64
	epoch     uint32
}

// recordingPeer stands in for broker 1: it accepts the link node 0
// dials, and timestamps every frame that carries a message (mangled
// drops and control frames are read and ignored). It never writes: a
// dialed link is one-way.
type recordingPeer struct {
	ln net.Listener
	ch chan arrival
}

func newRecordingPeer(t *testing.T) *recordingPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingPeer{ln: ln, ch: make(chan arrival, 64)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			ft, body, err := msg.ReadFrame(conn)
			if err != nil {
				return
			}
			a := arrival{at: time.Now(), ft: ft}
			switch ft {
			case msg.FrameMessage:
			case msg.FrameData:
				var derr error
				if a.seq, a.base, a.epoch, body, derr = msg.DecodeDataHeader(body); derr != nil {
					continue
				}
			default:
				continue
			}
			if m, err := msg.DecodeMessage(body); err == nil {
				a.id = m.ID
				p.ch <- a
			}
		}
	}()
	return p
}

func (p *recordingPeer) next(t *testing.T) arrival {
	t.Helper()
	select {
	case a := <-p.ch:
		return a
	case <-time.After(5 * time.Second):
		t.Fatal("recording peer: no frame within 5 s")
		return arrival{}
	}
}

// pacedSender is a node 0 whose only link goes to a recording
// peer. A 10 KB message on the N(100, 2) ms/KB link is ≈ 1 emulated
// second of transfer; timeScale decides how much wall time that is.
// Scheduling is RL (least remaining lifetime first), so a message with a
// tighter bound outranks the backlog whenever it is there to be picked.
func pacedSender(t *testing.T, timeScale float64, loss *runtime.LinkLoss) (*Node, *recordingPeer, *Publisher) {
	t.Helper()
	return linkSenderNode(t, NodeConfig{TimeScale: timeScale, Links: lossyLink(loss)})
}

// lossyLink is the link spec toward broker 1 facing loss (nil: a clean
// link), retrying blindly up to 8 attempts.
func lossyLink(loss *runtime.LinkLoss) map[msg.NodeID]runtime.LinkSpec {
	if loss == nil {
		return nil
	}
	return map[msg.NodeID]runtime.LinkSpec{1: {
		Loss:  runtime.NewLossModel(1, 0, *loss),
		Retry: runtime.RetryPolicy{Enabled: true, MaxAttempts: 8},
	}}
}

// linkSenderNode completes cfg into node 0 of a two-broker overlay,
// links it to a recording peer, subscribes the peer's side to everything
// and attaches a publisher.
func linkSenderNode(t *testing.T, cfg NodeConfig) (*Node, *recordingPeer, *Publisher) {
	t.Helper()
	g := topology.NewGraph(2)
	if err := g.AddLink(0, 1, stats.Normal{Mean: 100, Sigma: 2}); err != nil {
		t.Fatal(err)
	}
	cfg.ID = 0
	cfg.Overlay = &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{1}}
	cfg.Scenario, cfg.Strategy, cfg.Seed = msg.PSD, core.RL{}, 1
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	addr, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := newRecordingPeer(t)
	if err := n.ConnectPeers(map[msg.NodeID]string{1: peer.ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}
	n.Subscribe(&msg.Subscription{ID: 1, Edge: 1, Filter: &filter.Filter{}})
	pub, err := DialPublisher(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	return n, peer, pub
}

// queueBacklog parks the link, publishes k 10 KB messages with a roomy
// bound, and waits until all of them sit in the link's queue.
func queueBacklog(t *testing.T, n *Node, pub *Publisher, k int) {
	t.Helper()
	n.SetLinkDown(1, true)
	for i := 0; i < k; i++ {
		if _, err := pub.Publish(0, msg.NumAttrs(map[string]float64{"A1": float64(i)}), 10, 10*vtime.Minute, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.egress.Load() < int64(k) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d messages reached the link queue", n.egress.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
}

// observations waits for the sender to go idle (the rate observation is
// recorded after the write the peer has already seen) and returns how
// many transfers the link estimator was shown.
func observations(t *testing.T, n *Node) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.busySenders.Load() != 0 || n.egress.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sender still busy 5 s after the last frame arrived")
		}
		time.Sleep(time.Millisecond)
	}
	est := n.estimateOf(1)
	est.mu.Lock()
	defer est.mu.Unlock()
	return est.est.Count()
}

// TestShardedSenderPacesTransfers is the tentpole's behaviour pin: with
// pacing on, the sender puts one transfer on the wire at a time.
// Eight queued messages of ≈ 20 ms wall each: the first frame arrives
// after about one transfer — not after all eight, as when a burst was a
// count of messages slept through as one sum — the arrivals are spaced a
// transfer apart, every transfer is observed on its own by the link
// estimator, and a message with a tighter bound that shows up mid-drain
// is picked at the very next transfer instead of after the backlog. The
// same shape must hold on a lossy link, where a transfer is a whole
// resolved chain (every lost attempt paced and written as a mangled
// drop).
func TestShardedSenderPacesTransfers(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock paced transfers")
	}
	const (
		backlog  = 8
		transfer = 20 * time.Millisecond // 10 KB × 100 ms/KB × 0.02
	)
	for _, tc := range []struct {
		name string
		loss *runtime.LinkLoss
	}{
		{"plain", nil}, // a clean link: no adversary
		{"lossy", &runtime.LinkLoss{Rate: 0.25, Dup: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, peer, pub := pacedSender(t, 0.02, tc.loss)
			queueBacklog(t, n, pub, backlog)

			start := time.Now()
			n.SetLinkDown(1, false)
			var got []arrival
			seen := make(map[msg.ID]bool) // a duplicated copy arrives twice
			take := func() arrival {
				for {
					a := peer.next(t)
					if !seen[a.id] {
						seen[a.id] = true
						got = append(got, a)
						return a
					}
				}
			}
			take()
			take()
			// Mid-drain: two transfers done, six still queued.
			urgent, err := pub.Publish(0, msg.NumAttrs(map[string]float64{"A1": 99}), 10, 30*vtime.Second, nil)
			if err != nil {
				t.Fatal(err)
			}
			for len(got) < backlog+1 {
				take()
			}

			first, last := got[0].at.Sub(start), got[len(got)-1].at.Sub(start)
			if tc.loss == nil && first > backlog*transfer/2 {
				t.Errorf("first frame after %v: want about one %v transfer, under half of all %d", first, transfer, backlog)
			}
			if first > last/2 {
				t.Errorf("first frame after %v of a %v drain: the burst was slept through as a whole", first, last)
			}
			if min := (backlog + 1) * transfer * 8 / 10; last < min {
				t.Errorf("drain took %v, under %v: transfers were not paced", last, min)
			}
			gaps := make([]time.Duration, 0, len(got)-1)
			for i := 1; i < len(got); i++ {
				gaps = append(gaps, got[i].at.Sub(got[i-1].at))
			}
			sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
			if med := gaps[len(gaps)/2]; med < transfer/2 {
				t.Errorf("median gap between arrivals %v, want about one %v transfer (gaps %v)", med, transfer, gaps)
			}
			pos := -1
			for i, a := range got {
				if a.id == urgent {
					pos = i
				}
			}
			// Published after the 2nd arrival; the 3rd transfer may already
			// be under way, so the 4th or 5th frame is the earliest it can be.
			if pos < 2 || pos > 4 {
				t.Errorf("urgent message arrived at position %d of %d, want right behind the transfers in flight when it was published", pos+1, len(got))
			}
			// One link-rate observation per transfer, not per burst.
			if obs := observations(t, n); obs != backlog+1 {
				t.Errorf("link estimator saw %d observations for %d transfers", obs, backlog+1)
			}
		})
	}
}

// TestShardedSenderUnpacedBurstsToCap is the other half of the rule: when
// the transfer times do not add up to anything a timer can resolve, the
// burst is bounded by the Burst cap alone — the whole backlog leaves as
// one burst (one link observation).
func TestShardedSenderUnpacedBurstsToCap(t *testing.T) {
	n, peer, pub := pacedSender(t, 1e-9, nil)
	queueBacklog(t, n, pub, 8)
	n.SetLinkDown(1, false)
	for i := 0; i < 8; i++ {
		peer.next(t)
	}
	if obs := observations(t, n); obs != 1 {
		t.Errorf("unpaced backlog of 8 left in %d bursts, want 1", obs)
	}
}

// TestShardedSenderReordersUnderPacing: a paced burst ends after one
// transfer unless the adversary swaps the chain behind its successor —
// then, as in the simulator's kick, the successor rides the same
// transfer and overtakes it. With certain reordering the frames arrive
// pairwise swapped, each pair after two transfers' time. The Burst cap
// cuts no owed reorder either: at a cap of one, each burst is a head and
// the successor it owes.
func TestShardedSenderReordersUnderPacing(t *testing.T) {
	t.Run("paced", func(t *testing.T) {
		if testing.Short() {
			t.Skip("wall-clock paced transfers")
		}
		n, peer, pub := pacedSender(t, 0.01, &runtime.LinkLoss{Reorder: 1})
		queueBacklog(t, n, pub, 6)
		start := time.Now()
		n.SetLinkDown(1, false)
		var got []arrival
		for i := 0; i < 6; i++ {
			got = append(got, peer.next(t))
		}
		for i, want := range []uint64{2, 1, 4, 3, 6, 5} {
			if got[i].seq != want {
				t.Fatalf("link sequence %d arrived at position %d, want %d", got[i].seq, i+1, want)
			}
		}
		// Three pairs of two 10 ms transfers: the first pair after ≈ 20 ms,
		// not after all 60.
		if first, last := got[0].at.Sub(start), got[5].at.Sub(start); first > last/2 {
			t.Errorf("first pair after %v of a %v drain", first, last)
		}
		if obs := observations(t, n); obs != 3 {
			t.Errorf("%d bursts for three swapped pairs", obs)
		}
	})
	t.Run("burst1", func(t *testing.T) {
		n, peer, pub := linkSenderNode(t, NodeConfig{
			TimeScale: 1e-9, Burst: 1, Links: lossyLink(&runtime.LinkLoss{Reorder: 1}),
		})
		queueBacklog(t, n, pub, 6)
		n.SetLinkDown(1, false)
		for i, want := range []uint64{2, 1, 4, 3, 6, 5} {
			if a := peer.next(t); a.seq != want {
				t.Fatalf("link sequence %d arrived at position %d, want %d", a.seq, i+1, want)
			}
		}
		if obs := observations(t, n); obs != 3 {
			t.Errorf("%d bursts for three swapped pairs at a cap of one", obs)
		}
	})
}

// TestPacerWait pins the pacing-wait helper: nothing to sleep allocates
// no timer, the first real sleep creates the one timer every later sleep
// reuses, and a stopped node cuts a sleep short and reports it.
func TestPacerWait(t *testing.T) {
	var p pacer
	stopped := make(chan struct{})
	if !p.wait(0, stopped) || !p.wait(-time.Second, stopped) || p.timer != nil {
		t.Fatalf("empty wait: timer %v, want none and true", p.timer)
	}
	t0 := time.Now()
	if !p.wait(5*time.Millisecond, stopped) || time.Since(t0) < 5*time.Millisecond {
		t.Fatalf("wait(5ms) returned after %v", time.Since(t0))
	}
	first := p.timer
	if first == nil {
		t.Fatal("a real wait must create the timer")
	}
	if allocs := testing.AllocsPerRun(20, func() { p.wait(50*time.Microsecond, stopped) }); allocs != 0 {
		t.Errorf("reused wait allocates %.1f per call", allocs)
	}
	if p.timer != first {
		t.Error("timer was replaced instead of reused")
	}

	go func() {
		time.Sleep(5 * time.Millisecond)
		close(stopped)
	}()
	t0 = time.Now()
	if p.wait(5*time.Second, stopped) {
		t.Error("wait outlived the stop")
	}
	if time.Since(t0) > time.Second {
		t.Errorf("stop took %v to cut the wait", time.Since(t0))
	}
	if p.wait(0, stopped) || p.wait(time.Millisecond, stopped) {
		t.Error("wait on a stopped node must report false")
	}
	select {
	case <-p.timer.C:
		t.Error("a cut wait left its timer's channel loaded")
	default:
	}
}
