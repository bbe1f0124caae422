package livenet

import (
	grt "runtime"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/runtime"
)

// TestArmedFaultsStrikeOnTheClock: the cluster strikes a crash and a
// warm restart at their offsets on its own clock — wall milliseconds
// here, though TimeScale is 0.002 — the reborn broker counts the
// subscription it replayed, and WaitIdle drains on the settled fallback
// once a broker has been replaced.
func TestArmedFaultsStrikeOnTheClock(t *testing.T) {
	c, s, p := durableTinyCluster(t)
	got := make(map[msg.ID]bool)
	publishN(t, p, 3)
	collectDeliveries(t, s, got, 3, 10*time.Second)

	if err := c.ArmFaults([]runtime.Fault{runtime.BrokerCrash{ID: 9}}, nil); err == nil {
		t.Error("a fault on a broker outside the cluster was armed")
	}
	old := c.Node(1)
	if err := c.ArmFaults([]runtime.Fault{
		runtime.BrokerCrash{ID: 1, At: 500},
		runtime.BrokerRestart{ID: 1, At: 600},
	}, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if old.Stopped() {
		t.Fatal("the crash struck at TimeScale, not on the clock's wall milliseconds")
	}
	waitFor(t, "the restarted broker", func() bool {
		return c.Node(1).Stats().RestartReplayedSubs == 1
	})
	if !old.Stopped() {
		t.Error("the restart left the old incarnation running")
	}
	start := time.Now()
	if err := c.WaitIdle(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 500*time.Millisecond {
		t.Errorf("WaitIdle returned after %v: a replaced broker must drain on 500 ms of settled totals", d)
	}
	publishN(t, p, 1)
	collectDeliveries(t, s, got, 4, 5*time.Second)
}

// TestHeartbeatsTickOnTheClock: a standalone node's heartbeats run on
// its clock — the absolute wall clock, as in a standalone cluster — not
// on TimeScale, here 1e-6, at which a 50 ms interval would be 50 ns. Over
// ten intervals of wall time its peer hears about ten probes; at
// TimeScale's rate it would hear hundreds of thousands.
func TestHeartbeatsTickOnTheClock(t *testing.T) {
	const interval = 50 // clock ms
	_, peer, _ := linkSenderNode(t, NodeConfig{TimeScale: 1e-6, Heartbeat: HeartbeatConfig{Interval: interval}})
	from := peer.beats.Load()
	time.Sleep(10 * interval * time.Millisecond)
	if got := peer.beats.Load() - from; got < 5 || got > 12 {
		t.Errorf("peer heard %d heartbeats in 10 intervals, want ≈ 10", got)
	}
}

// TestStopWaitsForStrikingFault: Stop right behind an armed restart
// either cancels it or waits for it and stops the new incarnation too,
// so no broker outlives the cluster.
func TestStopWaitsForStrikingFault(t *testing.T) {
	baseline := grt.NumGoroutine()
	func() {
		c, err := StartCluster(ClusterConfig{
			Overlay: tinyOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
			TimeScale: 0.002, Seed: 1, StateRoot: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ArmFaults([]runtime.Fault{
			runtime.BrokerCrash{ID: 1},
			runtime.BrokerRestart{ID: 1, At: 1},
		}, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		c.Stop()
		for id := range c.Nodes {
			if n := c.Node(id); !n.Stopped() {
				t.Errorf("broker %d still running after Stop", id)
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for grt.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := grt.Stack(buf, true)
			t.Fatalf("goroutines leaked after Stop: %d > baseline %d\n%s", grt.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStartClusterRefusesInvalidLinkLoss: a cluster without a plan
// validates its LinkLoss as the plan validates faults — a certain drop
// is refused, not armed on every arc.
func TestStartClusterRefusesInvalidLinkLoss(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay: tinyOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: 1e-6, Seed: 1,
		LinkLoss: &runtime.LinkLoss{From: msg.None, To: msg.None, Rate: 1},
	})
	if err == nil {
		c.Stop()
		t.Fatal("a LinkLoss Rate of 1 was accepted")
	}
}

// TestStandaloneClusterChargesItsPlansLoss: a cluster started without a
// plan runs the plan its fields map onto. Driven like a cluster
// deploying that plan — same chain, seed, clock and wildcard adversary,
// one publisher, one match-all subscriber — it charges the same loss
// ledger: the same adversary decisions on the same link indices, healed
// by the same retry policy.
func TestStandaloneClusterChargesItsPlansLoss(t *testing.T) {
	const n = 200
	loss := runtime.LinkLoss{From: msg.None, To: msg.None, Rate: 0.1, Dup: 0.02}
	drive := func(cfg ClusterConfig) Stats {
		t.Helper()
		c, err := StartCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		s, err := DialSubscriber(c.Addr(2), &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Clock = c.Clock()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			ing := c.Node(0)
			ing.mu.RLock()
			routed := len(ing.table.SubEntries(1, nil)) > 0
			ing.mu.RUnlock()
			if routed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the subscribe flood never reached the ingress")
			}
		}
		p, err := DialPublisher(c.Addr(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.Clock = c.Clock()
		publishN(t, p, n)
		collectDeliveries(t, s, make(map[msg.ID]bool), n, 10*time.Second)
		if err := c.WaitIdle(n, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		return c.TotalStats()
	}
	standalone := drive(ClusterConfig{
		Overlay: tinyOverlay(t), Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: 1e-6, Seed: 7, LinkLoss: &loss,
	})
	p, err := runtime.Assemble(runtime.Config{
		Seed: 7, Scenario: msg.PSD, Strategy: core.MaxEB{}, Overlay: tinyOverlay(t),
		Subscriptions: []*msg.Subscription{}, Faults: []runtime.Fault{loss}, TimeScale: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// On the standalone's clock: a plan cluster's default, anchored at
	// TimeScale, would expire the bounds within a wall millisecond.
	planned := drive(ClusterConfig{Plan: p, Clock: runtime.AbsoluteWallClock(1)})
	if standalone.FramesLost == 0 || standalone.DupsSuppressed == 0 {
		t.Fatalf("the adversary did nothing: lost %d, dups suppressed %d", standalone.FramesLost, standalone.DupsSuppressed)
	}
	if standalone.FramesLost != planned.FramesLost || standalone.Retransmits != planned.Retransmits ||
		standalone.DupsSuppressed != planned.DupsSuppressed {
		t.Errorf("standalone lost %d, retransmitted %d, suppressed %d dups; the plan cluster %d, %d, %d",
			standalone.FramesLost, standalone.Retransmits, standalone.DupsSuppressed,
			planned.FramesLost, planned.Retransmits, planned.DupsSuppressed)
	}
}
