package livenet

import (
	"maps"
	"net"
	grt "runtime"
	"strings"
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

// TestClusterStopNoGoroutineLeak pins the shutdown path and the running
// cluster's goroutine budget: start a cluster, check it runs exactly the
// documented goroutines, run traffic through it, stop it, and require
// the goroutine count to return to baseline. A leaked accept loop,
// reader or sender shows up here as a stuck surplus. The subtest keeps
// the name it had when the ingress worker count was a parameter; the
// count is gone and the case runs the one configuration there is.
func TestClusterStopNoGoroutineLeak(t *testing.T) { t.Run("shards=4", testClusterStopNoGoroutineLeak) }

func testClusterStopNoGoroutineLeak(t *testing.T) {
	baseline := grt.NumGoroutine()

	ov := tinyOverlay(t)
	c, err := StartCluster(ClusterConfig{
		Overlay:   ov,
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// With no clients attached, each node runs its accept loop, one read
	// loop per inbound link and one sender per outgoing link — and no
	// processing goroutine of its own: messages are processed on the read
	// loops. Read loops start as their connections are accepted, so poll.
	want := map[string]int{"acceptLoop": ov.Graph.N()}
	for id := 0; id < ov.Graph.N(); id++ {
		links := len(ov.Graph.Neighbors(msg.NodeID(id)))
		want["readLoop"] += links
		want["senderLoop"] += links
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		got := nodeGoroutines()
		if maps.Equal(got, want) {
			break
		}
		if time.Now().After(deadline) {
			c.Stop()
			t.Fatalf("node goroutines %v, want exactly %v", got, want)
		}
	}

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 20*vtime.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Receive(5 * time.Second); err != nil {
		t.Fatalf("warm-up delivery: %v", err)
	}

	p.Close()
	s.Close()
	c.Stop() // must reap accept loops, readers and senders

	// Client readLoops exit asynchronously once their conns die; poll
	// until the count settles back to the baseline (small slack for
	// unrelated test-runtime goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := grt.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := grt.Stack(buf, true)
			t.Fatalf("goroutines leaked after Stop: %d > baseline %d\n%s",
				grt.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// nodeGoroutines tallies the goroutines whose entry function is a Node
// method, by method name — what the running nodes cost, whatever else
// the test binary has going.
func nodeGoroutines() map[string]int {
	const prefix = "bdps/internal/livenet.(*Node)."
	tally := make(map[string]int)
	for _, g := range goroutineStacks() {
		// The entry frame is the last function line above "created by"
		// (file lines are tab-indented).
		entry := ""
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "created by ") {
				break
			}
			if !strings.HasPrefix(line, "\t") {
				entry = line
			}
		}
		if name, ok := strings.CutPrefix(entry, prefix); ok {
			tally[name[:strings.IndexByte(name, '(')]]++
		}
	}
	return tally
}

// goroutineStacks returns every goroutine's stack trace.
func goroutineStacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := grt.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestLiveMultipathDedupDynamicFlood covers multipath in the dynamic
// subscription-flood mode: a diamond overlay with Multipath 2 routes
// every publication over both paths, so the edge receives each one twice,
// on two connections whose read loops process them at the same time. A
// burst must reach the subscriber exactly once per publication, with the
// second copy of every one suppressed as a duplicate.
func TestLiveMultipathDedupDynamicFlood(t *testing.T) {
	g := topology.NewGraph(4)
	for _, l := range []struct {
		a, b msg.NodeID
		mean float64
	}{{0, 1, 50}, {0, 2, 55}, {1, 3, 50}, {2, 3, 55}} {
		if err := g.AddLink(l.a, l.b, stats.Normal{Mean: l.mean, Sigma: 5}); err != nil {
			t.Fatal(err)
		}
	}
	ov := &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{3}}
	plan, err := runtime.Assemble(runtime.Config{
		Seed: 1, Scenario: msg.PSD, Strategy: core.MaxEB{}, Overlay: ov, Multipath: 2,
		Subscriptions: []*msg.Subscription{},
		TimeScale:     1e-9, // pacing off: both copies race to the edge
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartCluster(ClusterConfig{Plan: plan, Clock: runtime.AbsoluteWallClock(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	// A bare subscriber connection, read in the test: the client's
	// delivery channel would drop a burst its consumer falls behind on.
	conn, err := net.Dial("tcp", c.Addr(3))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sub := &msg.Subscription{ID: 1, Edge: 3, Filter: &filter.Filter{}}
	body, err := msg.AppendSubscription(nil, sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := msg.WriteFrame(conn, msg.FrameHello, msg.AppendHello(nil, msg.RoleSubscriber, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := msg.WriteFrame(conn, msg.FrameSubscribe, body); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // subscription flood

	// receive reads deliveries until want have arrived or the connection
	// stays silent for wait, counting each publication and checking the
	// session sequences run gapless.
	const n = 500
	got := make(map[msg.ID]int)
	var seqs uint64
	receive := func(want int, wait time.Duration) {
		for len(got) < want {
			conn.SetReadDeadline(time.Now().Add(wait))
			ft, body, err := msg.ReadFrame(conn)
			if err != nil {
				return
			}
			if ft != msg.FrameData {
				continue
			}
			seq, _, _, mb, err := msg.DecodeDataHeader(body)
			if err != nil {
				t.Error(err)
				return
			}
			if seqs++; seq != seqs {
				t.Errorf("session sequence %d where %d was due", seq, seqs)
				return
			}
			m, err := msg.DecodeMessage(mb)
			if err != nil {
				t.Error(err)
				return
			}
			got[m.ID]++
		}
	}
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		receive(n, 10*time.Second)
	}()

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	published := make(map[msg.ID]bool, n)
	for i := 0; i < n; i++ {
		id, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 50, 30*vtime.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		published[id] = true
	}
	<-collected
	if err := c.WaitIdle(n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Dedup: no second copy reaches the subscriber after the run.
	receive(n+1, 200*time.Millisecond)

	if len(got) != n {
		t.Errorf("subscriber received %d distinct publications, want %d", len(got), n)
	}
	for id, k := range got {
		if !published[id] {
			t.Errorf("delivered id %d was never published", id)
		} else if k != 1 {
			t.Errorf("publication %d delivered %d times: multipath dedup broken", id, k)
		}
	}
	// Both paths carried every publication: 1 (ingress) + 2 (middles) + 2
	// (edge arrivals, one suppressed as duplicate) receptions each.
	total := c.TotalStats()
	if total.Receptions != 5*n {
		t.Errorf("receptions = %d, want %d (every publication must traverse both paths)", total.Receptions, 5*n)
	}
	if total.Duplicates != n {
		t.Errorf("duplicates = %d, want %d: the edge must suppress exactly the second copy of each", total.Duplicates, n)
	}
}

// TestIdleReadLoopHeap pins what an idle connection costs: the paper's
// 32-broker overlay, started with no subscriptions and carrying no
// traffic, holds at most 8 KiB of live heap per read loop — everything
// the started cluster owns, over its read loops. A read loop holds a
// batch buffer only while frames are queued on its connection.
func TestIdleReadLoopHeap(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	readLoops := 0
	for id := 0; id < ov.Graph.N(); id++ {
		readLoops += len(ov.Graph.Neighbors(msg.NodeID(id)))
	}
	before := liveHeap()
	c, err := StartCluster(ClusterConfig{
		Overlay:   ov,
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.001,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	// Measure once every read loop has its reader and waits in it.
	waiting := func() int {
		n := 0
		for _, g := range goroutineStacks() {
			if strings.Contains(g, "msg.(*FrameReader).Next") && strings.Contains(g, "livenet.(*Node).readLoop") {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); waiting() < readLoops; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d read loops waiting in their readers, want %d", waiting(), readLoops)
		}
	}
	per := (int64(liveHeap()) - int64(before)) / int64(readLoops)
	t.Logf("%d read loops, %d bytes of live heap each", readLoops, per)
	if per > 8<<10 {
		t.Errorf("an idle cluster holds %d bytes of live heap per read loop, want ≤ 8 KiB", per)
	}
}

// liveHeap collects twice, so pooled objects, which survive one cycle
// in the victim cache, are gone, and returns the live heap in bytes.
func liveHeap() uint64 {
	grt.GC()
	grt.GC()
	var ms grt.MemStats
	grt.ReadMemStats(&ms)
	return ms.HeapAlloc
}
