package livenet

import (
	"testing"

	"bdps/internal/msg"
	"bdps/internal/runtime"
)

// BenchmarkRetransmit measures the reliable channel's bookkeeping on the
// hot path: the bounded retransmit buffer cycling add → cumulative ack
// trim, at the default window, with a wire-realistic 1 KiB frame. This is
// the per-data frame overhead every lossy link pays on top of the clean
// plane.
func BenchmarkRetransmit(b *testing.B) {
	frame := make([]byte, 1024)
	b.Run("cycle", func(b *testing.B) {
		rb := newRetxBuf(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq := uint64(i + 1)
			rb.add(seq, frame)
			if seq >= 16 {
				rb.ack(seq - 15)
			}
		}
		if got := rb.len(); got != 15 && b.N >= 16 {
			b.Fatalf("%d frames buffered past the trim, want 15", got)
		}
	})
	// Eviction pressure: a peer that never acks forces the window's
	// lowest-sequence eviction on every add.
	b.Run("evict", func(b *testing.B) {
		rb := newRetxBuf(64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.add(uint64(i+1), frame)
		}
	})
	// Receiver-side mirror: dedup/reorder restoration at the same cadence,
	// with every 64th pair of frames arriving swapped.
	b.Run("recv", func(b *testing.B) {
		rs := runtime.NewRecvState(64)
		m := &msg.Message{}
		out := make([]*msg.Message, 0, 4)
		b.ReportAllocs()
		b.ResetTimer()
		seq := uint64(1)
		for i := 0; i < b.N; i++ {
			if seq%64 == 0 {
				out, _, _ = rs.Accept(seq+1, 1, m, out[:0])
				out, _, _ = rs.Accept(seq, 1, m, out[:0])
				seq += 2
			} else {
				out, _, _ = rs.Accept(seq, 1, m, out[:0])
				seq++
			}
		}
		if len(out) == 0 && rs.Pending() > 1 {
			b.Fatal("receiver wedged")
		}
	})
}
