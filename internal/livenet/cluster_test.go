package livenet

import (
	grt "runtime"
	"testing"
	"time"

	"bdps/internal/core"
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
