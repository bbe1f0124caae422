package livenet

import (
	"fmt"
	"net"
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
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			n, err := NewNode(NodeConfig{
				ID: 2, Overlay: tinyOverlay(b), Scenario: msg.PSD,
				Strategy: core.MaxEB{}, TimeScale: 1, Shards: shards,
			})
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
			frame, err := msg.AppendDataFrame(nil, 0, 0, n.Epoch(), m)
			if err != nil {
				b.Fatal(err)
			}
			peer := &peerConn{conn: discardConn{}}
			sub := &msg.Subscription{ID: 1, Edge: 2, Filter: &filter.Filter{}}
			n.mu.Lock()
			s := n.sessionFor(sub, peer, 0)
			n.mu.Unlock()
			for i := 0; i < sessionRingDefault+10; i++ { // wrapped once
				s.deliver(frame, m.Published, vtime.Hour)
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
		})
	}
}
