package livenet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/vtime"
)

// recConn is a publisher connection that records what it is given. Its
// first Write waits for gate (when set) after signalling entered; once
// failAfter bytes have been accepted (when ≥ 0) every Write fails, the
// one crossing the limit after taking what fits.
type recConn struct {
	net.Conn // unused methods

	gate      chan struct{}
	entered   chan struct{}
	failAfter int

	mu     sync.Mutex
	writes int
	got    []byte
}

func newRecConn() *recConn { return &recConn{failAfter: -1} }

var errInjected = errors.New("injected write failure")

func (c *recConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	first := c.writes == 0
	c.writes++
	c.mu.Unlock()
	if first && c.gate != nil {
		close(c.entered)
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failAfter >= 0 && len(c.got)+len(b) > c.failAfter {
		n := max(c.failAfter-len(c.got), 0)
		c.got = append(c.got, b[:n]...)
		return n, errInjected
	}
	c.got = append(c.got, b...)
	return len(b), nil
}

func (c *recConn) SetWriteDeadline(time.Time) error { return nil }
func (c *recConn) Close() error                     { return nil }

func (c *recConn) snapshot() (writes int, got []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, append([]byte(nil), c.got...)
}

var pubAttrs = msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})

// publishedIDs decodes a run of publisher frames into message ids.
func publishedIDs(t *testing.T, b []byte) []msg.ID {
	t.Helper()
	var ids []msg.ID
	for r := bytes.NewReader(b); r.Len() > 0; {
		ft, body, err := msg.ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", len(ids), err)
		}
		m, err := msg.DecodeMessage(body)
		if err != nil || ft != msg.FrameMessage {
			t.Fatalf("frame %d: type %d, %v", len(ids), ft, err)
		}
		ids = append(ids, m.ID)
	}
	return ids
}

// TestPublisherCoalescesBurst: while the writer is held in its first
// write, a burst from one goroutine accumulates and leaves in one more
// write, byte for byte in publication order.
func TestPublisherCoalescesBurst(t *testing.T) {
	c := newRecConn()
	c.gate, c.entered = make(chan struct{}), make(chan struct{})
	p := newPublisher(c, 3)
	var want []msg.ID
	publish := func() {
		id, err := p.Publish(0, pubAttrs, 1, vtime.Second, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	publish()
	<-c.entered
	for len(want) < 256 {
		publish()
	}
	close(c.gate)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	writes, got := c.snapshot()
	if writes > 3 {
		t.Errorf("256 publications took %d writes, want ≤ 3", writes)
	}
	ids := publishedIDs(t, got)
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("peer saw %d frames %v…, want %d in publication order", len(ids), ids[:min(len(ids), 4)], len(want))
	}
}

// TestPublisherLonePublicationLeaves: one publication and no further
// call (no Close, no second Publish) still reaches the peer.
func TestPublisherLonePublicationLeaves(t *testing.T) {
	pc, peer := net.Pipe()
	defer peer.Close()
	p := newPublisher(pc, 1)
	defer p.Close()
	id, err := p.Publish(0, pubAttrs, 1, vtime.Second, []byte("alone"))
	if err != nil {
		t.Fatal(err)
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, body, err := msg.ReadFrame(peer)
	if err != nil {
		t.Fatalf("the lone publication never left: %v", err)
	}
	m, err := msg.DecodeMessage(body)
	if err != nil || ft != msg.FrameMessage || m.ID != id || string(m.Payload) != "alone" {
		t.Fatalf("peer read type %d %+v (%v), want message %d", ft, m, err, id)
	}
}

// TestPublisherBackpressure: against a peer that never reads, Publish
// blocks once pendingCap bytes wait, pending never exceeds it, and Close
// refuses the blocked caller. Closing the peer then fails the stuck write,
// and the publications it strands are all reported lost.
func TestPublisherBackpressure(t *testing.T) {
	pc, peer := net.Pipe()
	p := newPublisher(pc, 1)
	payload := make([]byte, 1000)
	var accepted atomic.Int64
	var pubErr error
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for {
			if _, err := p.Publish(0, pubAttrs, 1, vtime.Second, payload); err != nil {
				pubErr = err
				return
			}
			accepted.Add(1)
		}
	}()
	// Wait until the caller is stuck: accepted stops moving.
	last, still := int64(-1), 0
	for still < 20 {
		time.Sleep(5 * time.Millisecond)
		p.mu.Lock()
		pending := len(p.pending)
		p.mu.Unlock()
		if pending > pendingCap {
			t.Fatalf("pending %d bytes, cap %d", pending, pendingCap)
		}
		if n := accepted.Load(); n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	p.mu.Lock()
	pending, frame := len(p.pending), len(p.pending)/max(msg.CompleteFrames(p.pending), 1)
	p.mu.Unlock()
	if pending+frame <= pendingCap {
		t.Fatalf("Publish blocked with %d bytes pending; room for another %d-byte frame", pending, frame)
	}
	select {
	case <-returned:
		t.Fatalf("Publish returned %v instead of blocking", pubErr)
	default:
	}

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the waiting Publish")
	}
	if !errors.Is(pubErr, net.ErrClosed) {
		t.Errorf("blocked Publish returned %v, want net.ErrClosed", pubErr)
	}
	peer.Close() // the write the writer is stuck in fails now
	err := <-closed
	if lost := p.Lost(); err == nil || int64(lost) != accepted.Load() {
		t.Errorf("Close = %v: lost %d, want all %d accepted (the peer read nothing)", err, lost, accepted.Load())
	}
}

// TestPublisherLossLedger: a connection failing after k bytes, for
// several k. Every accepted publication either arrives whole or is
// counted in Lost once Close has returned, and every call after the
// failure returns it.
func TestPublisherLossLedger(t *testing.T) {
	frameLen := len(mustFrame(t))
	for _, k := range []int{0, 1, frameLen - 1, frameLen, 3*frameLen + 5, 40 * frameLen, 1 << 20} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			c := newRecConn()
			c.failAfter = k
			p := newPublisher(c, 2)
			accepted := 0
			var pubErr error
			for i := 0; i < 200; i++ {
				_, err := p.Publish(0, pubAttrs, 1, vtime.Second, []byte("x"))
				if err == nil {
					accepted++
				} else if pubErr == nil {
					pubErr = err
				} else if err != pubErr {
					t.Fatalf("Publish returned %v after %v: the write error is not sticky", err, pubErr)
				}
				if i%7 == 0 {
					goruntime.Gosched() // let the writer take partial batches
				}
			}
			err := p.Close()
			lost := p.Lost() // what the runtime's Drain charges
			_, got := c.snapshot()
			received := msg.CompleteFrames(got)
			if accepted != received+lost {
				t.Errorf("accepted %d, received %d + lost %d", accepted, received, lost)
			}
			if k < 1<<20 && err == nil {
				t.Error("Close did not report the failed write")
			}
		})
	}
}

func mustFrame(t *testing.T) []byte {
	t.Helper()
	b, err := msg.AppendMessageFrame(nil, &msg.Message{Attrs: pubAttrs, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPublisherCloseFlushes: a thousand publications and an immediate
// Close all reach the subscriber. They are counted by the session
// sequence the subscriber's connection has read up to: its delivery
// channel may drop under a slow consumer, which is not under test.
func TestPublisherCloseFlushes(t *testing.T) {
	c := startTinyCluster(t, msg.PSD)
	s, err := DialSubscriber(c.Addr(2), &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingress := c.Node(0)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ingress.mu.RLock()
		routed := ingress.tableSub(1) != nil
		ingress.mu.RUnlock()
		if routed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription never reached the ingress")
		}
	}
	p, err := DialPublisher(c.Addr(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Clock = c.Clock()
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := p.Publish(0, pubAttrs, 0.01, 60*vtime.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Token().LastSeq < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Token().LastSeq; got != n {
		t.Errorf("subscriber received %d of %d; ingress received %d", got, n, ingress.Stats().Receptions)
	}
}

// TestPublisherRaceClose: eight goroutines publish while another closes.
// Every call either succeeds or is refused as closed, and the peer
// receives exactly the accepted publications.
func TestPublisherRaceClose(t *testing.T) {
	pc, peer := net.Pipe()
	received := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(peer)
		received <- b
	}()
	p := newPublisher(pc, 4)
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := p.Publish(0, pubAttrs, 1, vtime.Second, []byte("race"))
				if err != nil {
					if !errors.Is(err, net.ErrClosed) {
						t.Errorf("Publish: %v", err)
					}
					return
				}
				accepted.Add(1)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := msg.CompleteFrames(<-received); int64(n) != accepted.Load() {
		t.Errorf("peer received %d frames, %d accepted", n, accepted.Load())
	}
}

// BenchmarkPublisherBurst measures 64 publications per op from one
// goroutine against a draining local peer: the append under the lock,
// the writer's swap, and the writes it needs (reported as writes/op;
// packetPair makes each write one read at the peer). The two buffers
// are swapped, never reallocated, so allocs/op is 0.
func BenchmarkPublisherBurst(b *testing.B) {
	wc, rc := packetPair(b)
	var writes atomic.Int64
	drained := make(chan struct{})
	buf := make([]byte, 1<<20)
	go func() {
		defer close(drained)
		for {
			if _, err := rc.Read(buf); err != nil {
				return
			}
			writes.Add(1)
		}
	}()
	p := newPublisher(wc, 1)
	payload := make([]byte, 16)
	burst := func() {
		for k := 0; k < 64; k++ {
			if _, err := p.Publish(0, pubAttrs, 1, vtime.Second, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 1000; i++ { // warm: both buffers grown
		burst()
	}
	w0 := writes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
	b.StopTimer()
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	<-drained
	b.ReportMetric(float64(writes.Load()-w0)/float64(b.N), "writes/op")
}
