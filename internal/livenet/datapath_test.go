package livenet

import (
	"net"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/vtime"
)

// runOrderedWorkload drives two publication streams through a chain
// cluster under FIFO scheduling and returns, per publisher, the
// sequence numbers in the order the subscriber received them.
func runOrderedWorkload(t *testing.T, perPub int) map[msg.NodeID][]uint32 {
	t.Helper()
	c, err := StartCluster(ClusterConfig{
		Overlay:  tinyOverlay(t),
		Scenario: msg.PSD,
		// FIFO: per-queue service order equals arrival order, so the
		// end-to-end per-stream order is fully determined — any
		// reordering can only come from the ingress plane under test.
		Strategy:  core.FIFO{},
		TimeScale: 0.002,
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
	defer s.Close()
	time.Sleep(100 * time.Millisecond) // subscription flood

	pubs := []*Publisher{}
	for id := msg.NodeID(0); id < 2; id++ {
		p, err := DialPublisher(c.Addr(0), id)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pubs = append(pubs, p)
	}
	// Interleave the two streams the way concurrent publishers would.
	for i := 0; i < perPub; i++ {
		for _, p := range pubs {
			if _, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": float64(i)}),
				2, 60*vtime.Second, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	got := make(map[msg.NodeID][]uint32)
	for i := 0; i < 2*perPub; i++ {
		m, err := s.Receive(5 * time.Second)
		if err != nil {
			t.Fatalf("delivery %d/%d: %v", i, 2*perPub, err)
		}
		seq := uint32(uint64(m.ID)) // low 32 bits: per-publisher sequence
		got[m.Publisher] = append(got[m.Publisher], seq)
	}
	return got
}

// TestPerStreamOrderMatchesSerial is the ingress's ordering pin:
// two publication streams, each on its own connection and so on its own
// read loop, must each arrive at the subscriber exactly once and in
// publication order. Run with -race this also exercises the concurrent
// Processor/queue/dedup paths.
func TestPerStreamOrderMatchesSerial(t *testing.T) {
	t.Run("streams=2", testPerStreamOrderMatchesSerial)
}

func testPerStreamOrderMatchesSerial(t *testing.T) {
	const perPub = 40
	got := runOrderedWorkload(t, perPub)
	if len(got) != 2 {
		t.Fatalf("deliveries from %d publishers, want 2", len(got))
	}
	for pub, seqs := range got {
		if len(seqs) != perPub {
			t.Errorf("publisher %d: %d deliveries, want %d", pub, len(seqs), perPub)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("publisher %d: stream reordered at %d: %d after %d",
					pub, i, seqs[i], seqs[i-1])
			}
		}
	}
}

// TestPayloadDelivery pins the zero-copy path end to end: a
// payload decoded aliasing a pooled frame buffer must arrive intact at
// the subscriber after transiting two pooled re-encodes.
func TestPayloadDelivery(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Overlay:   tinyOverlay(t),
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: 0.002,
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
	defer s.Close()
	time.Sleep(100 * time.Millisecond)

	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	payload := []byte("the-payload-must-survive-pooled-frames")
	want, err := p.Publish(0, msg.NumAttrs(map[string]float64{"A1": 1}), 10, 60*vtime.Second, payload)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Receive(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != want {
		t.Fatalf("delivered id %d, want %d", m.ID, want)
	}
	if string(m.Payload) != string(payload) {
		t.Fatalf("payload corrupted: %q", m.Payload)
	}
}

// TestReadLoopFlushesBehindSkippedFrame pins the idle flush on the skip
// paths and the order of control behind data, on bare broker links into
// the edge that carry no heartbeats. First, two valid messages and a
// trailing corrupt data frame arrive in one write: the read loop skips
// the corrupt frame and then blocks on an empty socket — the two accepted
// messages must have been delivered before it does, not held until the
// connection closes. Then K messages for the subscription arrive in one
// write with its unsubscribe behind them: the unsubscribe must not
// overtake them, so all K are delivered.
func TestReadLoopFlushesBehindSkippedFrame(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	defer c.Stop()

	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	s, err := DialSubscriber(c.Addr(2), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	time.Sleep(100 * time.Millisecond) // subscription flood

	// upstream opens a bare broker link into the edge, standing in for
	// broker 1, and returns it with its first k data frames (link
	// sequences 1..k, publications first..first+k-1) appended to one
	// buffer.
	upstream := func(first uint32, k int) (net.Conn, []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", c.Addr(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := msg.WriteFrame(conn, msg.FrameHello, msg.AppendHello(nil, msg.RoleBroker, 1, 0)); err != nil {
			t.Fatal(err)
		}
		var wire []byte
		for i := 0; i < k; i++ {
			wire, err = msg.AppendDataFrame(wire, uint64(i+1), uint64(i+1), 0, &msg.Message{
				ID: msg.MakeID(0, first+uint32(i)), Publisher: 0, Ingress: 0,
				Published: c.Clock().Now(), Allowed: 60 * vtime.Second, SizeKB: 1,
				Attrs: msg.NumAttrs(map[string]float64{"A1": 1}),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return conn, wire
	}

	conn, wire := upstream(0, 2)
	wire = msg.BeginFrame(wire, msg.FrameData)
	corrupt := len(wire) - 8
	wire = append(wire, "short"...) // no room for the seq/base/epoch prefix
	if err := msg.EndFrame(wire, corrupt); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Receive(2 * time.Second); err != nil {
			t.Fatalf("message %d of 2 queued ahead of a skipped frame: %v", i+1, err)
		}
	}

	// More than one flush batch of data, then the unsubscribe, in one
	// write.
	const k = 2*maxIngressBatch + 1
	conn, wire = upstream(100, k)
	wire = msg.BeginFrame(wire, msg.FrameUnsubscribe)
	at := len(wire) - 8
	wire = msg.AppendUnsubscribe(wire, sub.ID)
	if err := msg.EndFrame(wire, at); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := s.Receive(2 * time.Second); err != nil {
			t.Fatalf("message %d of %d overtaken by the unsubscribe behind it: %v", i+1, k, err)
		}
	}
}
