package livenet

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/vtime"
)

// discardConn is a subscriber connection that swallows every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// BenchmarkSessionResume measures the broker-side cost of one session
// resume against a full replay ring: reattaching the connection,
// scanning the retained deliveries past the client's token, gating each
// on its deadline and writing the retained frames — handleResume, minus
// the socket.
func BenchmarkSessionResume(b *testing.B) {
	n, err := NewNode(NodeConfig{ID: 2, Plan: barePlan(b, tinyOverlay(b), core.MaxEB{}), TimeScale: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Stop()
	m := &msg.Message{
		ID: 1, Publisher: 100, Ingress: 0,
		Published: n.clock.Now(), Allowed: vtime.Hour, SizeKB: 1,
		Attrs:   msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2}),
		Payload: make([]byte, 1024),
	}
	w := &worker{m: m, epoch: n.Epoch()}
	peer := &peerConn{conn: discardConn{}}
	sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
	n.mu.Lock()
	s := n.sessionFor(sub, peer, 0)
	n.mu.Unlock()
	for i := 0; i < sessionRingDefault+10; i++ { // wrapped once
		s.deliver(w, vtime.Hour)
	}
	token := s.seq - sessionRingDefault/2 // half the ring replays

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.handleResume(sub.ID, token, peer)
	}
	b.StopTimer()
	if got, want := n.Stats().ReplayedMsgs, b.N*sessionRingDefault/2; got != want {
		b.Fatalf("replayed %d, want %d", got, want)
	}
}

// BenchmarkSessionDeliver measures the edge's cost per local delivery
// at three ingress batch sizes: one encode per message, the ring copy
// and sequence stamp under the session lock, and a flush after every
// batch-th delivery, into a session attached over a local socket to a
// draining reader. The socket is a packet socket (packetPair), so the
// reader counts the writes the flushes made: writes/op is 1, 1/8 and
// 1/64, and that system call is the difference between the three ns/op.
func BenchmarkSessionDeliver(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
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
			m := &msg.Message{
				ID: 1, Publisher: 100, Ingress: 0, Allowed: vtime.Hour, SizeKB: 1,
				Attrs:   msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2}),
				Payload: make([]byte, 16),
			}
			w := &worker{m: m, epoch: 1}
			s := &session{
				sub:  &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}},
				peer: &peerConn{conn: wc},
			}
			// Warm: every ring slot owns its frame storage, and the
			// worker's scratch has seen a full ring — one write.
			for i := 0; i < sessionRingDefault; i++ {
				s.deliver(w, vtime.Hour)
			}
			s.flush(w)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.frame = nil // a new message, as process sees it
				s.deliver(w, vtime.Hour)
				if (i+1)%batch == 0 {
					s.flush(w)
				}
			}
			s.flush(w)
			b.StopTimer()
			wc.Close()
			<-drained
			b.ReportMetric(float64(writes.Load()-1)/float64(b.N), "writes/op")
		})
	}
}
