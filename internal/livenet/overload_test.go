package livenet

import (
	"fmt"
	"io"
	"net"
	"net/http"
	grt "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
)

// startOverloadCluster starts the standard 3-broker chain with the
// given overload protections, pacing off so publishers can outrun the
// pipeline.
func startOverloadCluster(t *testing.T, maxEgress int, adm runtime.Admission) *Cluster {
	t.Helper()
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 1e-9,
		Seed:      1,
		MaxEgress: maxEgress,
		Admission: adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// consume keeps draining a subscriber's delivery channel for the rest
// of the test, so broker writes to the subscriber connection never
// block on a full client buffer.
func consume(s *Subscriber) {
	go func() {
		for range s.C() {
		}
	}()
}

// blast publishes n messages at maximum rate from k concurrent
// publishers and returns the count injected.
func blast(t *testing.T, c *Cluster, k, n int) int {
	t.Helper()
	attrs := msg.NumAttrs(map[string]float64{"A1": 1})
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		p, err := DialPublisher(c.Addr(0), msg.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		wg.Add(1)
		go func(p *Publisher) {
			defer wg.Done()
			for j := 0; j < n/k; j++ {
				if _, err := p.Publish(0, attrs, 1, 60*vtime.Second, nil); err != nil {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	return n / k * k
}

// TestMetricsEndpoint pins the hand-rolled /metrics exposition: a
// cluster under load serves its counters as Prometheus text over HTTP,
// and the scraped totals match TotalStats.
func TestMetricsEndpoint(t *testing.T) {
	c := startOverloadCluster(t, 0, runtime.Admission{})
	defer c.Stop()
	ms, err := c.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond)
	injected := blast(t, c, 2, 200)
	if err := c.WaitIdle(injected, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	total := c.TotalStats()
	for _, want := range []string{
		fmt.Sprintf("bdps_deliveries_total %d", total.Deliveries),
		fmt.Sprintf("bdps_receptions_total %d", total.Receptions),
		"bdps_drops_shed_total 0",
		"bdps_pubs_rejected_total 0",
		`bdps_queue_depth{broker="0"}`,
		`bdps_queue_peak{broker="1"}`,
		`bdps_broker_up{broker="2"} 1`,
		"# TYPE bdps_deliveries_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	for _, info := range metrics.Counters {
		if want := "# TYPE bdps_" + info.Name + "_total counter\n"; !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if total.Deliveries != injected {
		t.Errorf("delivered %d of %d", total.Deliveries, injected)
	}
	// The edge's delivery latency is one summary from its ledger.
	for _, want := range []string{
		"# TYPE bdps_delivery_latency_ms summary\n",
		`bdps_delivery_latency_ms{broker="2",quantile="0.5"} `,
		`bdps_delivery_latency_ms{broker="2",quantile="0.95"} `,
		`bdps_delivery_latency_ms{broker="2",quantile="0.99"} `,
		`bdps_delivery_latency_ms_sum{broker="2"} `,
		fmt.Sprintf("bdps_delivery_latency_ms_count{broker=\"2\"} %d\n", c.Node(2).Stats().ValidDeliveries),
		`bdps_delivery_latency_ms_count{broker="0"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if c.Node(2).Stats().ValidDeliveries == 0 {
		t.Error("no valid delivery at the edge: the latency summary is empty")
	}
}

// TestBackpressureBoundsQueues is the slow-subscriber headline check:
// publishers outrun the pipeline at maximum rate, and MaxEgress must
// bound every broker's peak queue occupancy — without losing a single
// admitted delivery. Without backpressure the same blast balloons the
// interior queues by orders of magnitude.
func TestBackpressureBoundsQueues(t *testing.T) {
	if testing.Short() {
		t.Skip("max-rate blast")
	}
	const (
		maxEgress = 128
		conns     = 4
		n         = 20000
	)
	c := startOverloadCluster(t, maxEgress, runtime.Admission{})
	defer c.Stop()
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	consume(s)
	time.Sleep(100 * time.Millisecond)

	injected := blast(t, c, conns, n)
	if err := c.WaitIdle(injected, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// The gate lets each reading connection take one message past the
	// threshold before that message's enqueues show, and a message enters
	// at most every link of its broker — two in the chain's middle. The
	// publishers, the hops between brokers and the subscriber's
	// connection all count as readers.
	const fanout = 2
	bound := maxEgress + (conns+2)*fanout
	for id, node := range c.Nodes {
		if peak := node.PeakQueue(); peak > bound {
			t.Errorf("broker %d peak queue %d exceeds backpressure bound %d", id, peak, bound)
		}
	}
	total := c.TotalStats()
	if total.Deliveries != injected {
		t.Errorf("lost admitted deliveries: delivered %d of %d", total.Deliveries, injected)
	}
	if drops := total.DropsExpired + total.DropsHopeless + total.DropsArrival + total.DropsShed; drops != 0 {
		t.Errorf("backpressure run dropped %d entries, want 0", drops)
	}
}

// TestAdmissionRejectsAtSaturation pins node-local admission in
// standalone mode: with a tiny queue threshold and a max-rate blast,
// the ingress must turn publisher frames away (counted, not lost), the
// cluster must still quiesce, and everything it admitted must deliver.
func TestAdmissionRejectsAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("max-rate blast")
	}
	// Admission alone (no shedding): pressure shedding would hold the
	// queue just under the same threshold and mask the door check.
	c := startOverloadCluster(t, 0, runtime.Admission{
		Enabled: true, MaxQueue: 32,
	})
	defer c.Stop()
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	consume(s)
	time.Sleep(100 * time.Millisecond)

	injected := blast(t, c, 4, 20000)
	if err := c.WaitIdle(injected, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	total := c.TotalStats()
	if total.PubsRejected == 0 {
		t.Error("saturating blast should reject publications at the door")
	}
	admitted := injected - total.PubsRejected
	if total.Deliveries+total.DropsShed+total.DropsExpired+total.DropsHopeless < admitted {
		t.Errorf("admitted traffic unaccounted: %d admitted, %d delivered, %d shed, %d expired, %d hopeless",
			admitted, total.Deliveries, total.DropsShed, total.DropsExpired, total.DropsHopeless)
	}
}

// TestOverloadSoakDuringChurnAndFaults is the -race soak: every
// overload defense armed at once — admission, shedding, backpressure —
// while a churner floods subscribe/unsubscribe pairs, a link flaps
// mid-blast, and publishers hammer the ingress at maximum rate. The
// cluster must drain, and shutdown must return the goroutine count to
// baseline (the leak harness from the shutdown tests).
func TestOverloadSoakDuringChurnAndFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak")
	}
	baseline := grt.NumGoroutine()

	c := startOverloadCluster(t, 256, runtime.Admission{
		Enabled: true, Shed: true, MaxQueue: 128,
	})
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		c.Stop()
		t.Fatal(err)
	}
	consume(s)
	time.Sleep(100 * time.Millisecond)

	// Concurrent churn: subscribe/unsubscribe pairs flooding the edge
	// for the whole blast, mutating every routing table in place.
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		conn, err := net.Dial("tcp", c.Addr(2))
		if err != nil {
			return
		}
		defer conn.Close()
		hello := msg.AppendHello(nil, msg.RoleSubscriber, msg.NodeID(1<<20), 0)
		if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
			return
		}
		churn := msg.Subscription{ID: 1 << 20, Edge: 2, Filter: filter.MustParse("A1 < 0.5")}
		var subBuf, unsubBuf []byte
		for {
			select {
			case <-churnStop:
				return
			default:
			}
			body, err := msg.AppendSubscription(subBuf[:0], &churn)
			if err != nil || msg.WriteFrame(conn, msg.FrameSubscribe, body) != nil {
				return
			}
			subBuf = body
			unsubBuf = msg.AppendUnsubscribe(unsubBuf[:0], churn.ID)
			if msg.WriteFrame(conn, msg.FrameUnsubscribe, unsubBuf) != nil {
				return
			}
			churn.ID++
		}
	}()

	// A link flap mid-blast: the interior hop goes dark, queues build
	// against the protections, then it comes back.
	flap := time.AfterFunc(50*time.Millisecond, func() {
		c.Nodes[1].SetLinkDown(2, true)
		time.AfterFunc(100*time.Millisecond, func() { c.Nodes[1].SetLinkDown(2, false) })
	})
	defer flap.Stop()

	injected := blast(t, c, 4, 20000)
	if err := c.WaitIdle(injected, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	close(churnStop)
	<-churnDone
	total := c.TotalStats()
	if total.Deliveries == 0 {
		t.Error("soak delivered nothing")
	}
	t.Logf("soak: injected %d, delivered %d, rejected %d, shed %d",
		injected, total.Deliveries, total.PubsRejected, total.DropsShed)

	s.Close()
	c.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := grt.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := grt.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, grt.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
