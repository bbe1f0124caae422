package livenet

import (
	"encoding/binary"
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// captureConn keeps the bytes of every write, back to back.
type captureConn struct {
	discardConn
	wire []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.wire = append(c.wire, p...)
	return len(p), nil
}

const (
	// linkBenchBurst is how many entries one benchmarked burst carries:
	// enough for the adversary's reorder decision to find a successor.
	linkBenchBurst = 4
	// wireHdrLen is the frame header: magic(2) version(1) type(1) bodyLen(4).
	wireHdrLen = 8
)

// BenchmarkLink measures the one broker-to-broker link path per burst of
// linkBenchBurst entries, on a clean link (nil adversary — every relay
// link of an undisturbed overlay) and on a lossy one: send is what
// senderLoop does between its pop and its release (resolve each chain,
// order the burst, account it, assemble and write it), recv is what
// readLoop does with each arriving frame (data header, stale-epoch check,
// message decode into a pooled message, dedup/reorder state). Both must
// report 0 allocs/op: chain_small relays one-message bursts, and an
// allocation per burst is one per message there.
func BenchmarkLink(b *testing.B) {
	for _, tc := range []struct {
		name string
		loss *runtime.LinkLoss
	}{
		{"clean", nil},
		{"lossy", &runtime.LinkLoss{Rate: 0.2, Dup: 0.1, Reorder: 0.1}},
	} {
		n, err := NewNode(NodeConfig{ID: 1, Plan: barePlan(b, tinyOverlay(b), core.MaxEB{}), TimeScale: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer n.Stop()
		newSender := func() *runtime.LinkSend {
			spec := runtime.LinkSpec{
				Sampler: runtime.NewSampler(runtime.LinkNormal, stats.Normal{Mean: 50, Sigma: 5}, 1),
				Stream:  stats.DeriveN(1, "bench/link", 0),
				Retry:   runtime.RetryPolicy{Enabled: true, MaxAttempts: 8},
			}
			if tc.loss != nil {
				spec.Loss = runtime.NewLossModel(1, 0, *tc.loss)
			}
			ls := runtime.NewLinkSend(1, 0, spec, nil)
			return &ls
		}
		m := &msg.Message{
			ID: 1, Publisher: 100, Ingress: 0, Allowed: vtime.Hour, SizeKB: 1,
			Attrs: msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2}),
		}
		e := &core.Entry{MsgID: 1, SizeKB: 1, Data: m,
			Targets: []core.Target{{SubID: 1, Deadline: vtime.Hour, Price: 1, Hops: 1}}}
		var ws wireScratch
		sendBurst := func(ls *runtime.LinkSend, pc *peerConn) {
			for k := 0; k < linkBenchBurst; k++ {
				ls.Resolve(e, 0)
			}
			chains := ls.Order()
			ls.Account(nodeCount{n})
			n.writeBurstReliable(pc, chains, &ws)
		}

		b.Run(tc.name+"/send", func(b *testing.B) {
			ls, pc := newSender(), &peerConn{conn: discardConn{}}
			for i := 0; i < 64; i++ { // warm the burst scratch
				sendBurst(ls, pc)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sendBurst(ls, pc)
			}
			b.ReportMetric(float64(n.sentPeers.Load())/float64(b.N+64), "frames/op")
			n.sentPeers.Store(0)
		})

		b.Run(tc.name+"/recv", func(b *testing.B) {
			// The wire of 256 bursts, replayed with the sequence numbers
			// moved up one span per pass so no pass repeats a frame.
			const bursts = 256
			ls, capt := newSender(), &captureConn{}
			for i := 0; i < bursts; i++ {
				sendBurst(ls, &peerConn{conn: capt})
			}
			n.sentPeers.Store(0)
			wire, span := capt.wire, ls.Mark()
			lr := runtime.NewLinkRecv(0, nodeCount{n})
			var (
				dec     msg.Decoder
				deliver []*msg.Message
			)
			pass := func() {
				for off := 0; off < len(wire); {
					flen := wireHdrLen + int(binary.BigEndian.Uint32(wire[off+4:]))
					frame := wire[off : off+flen]
					off += flen
					if frame[msg.DataFrameType(0)] != msg.FrameData {
						continue // a mangled drop: counted, never processed
					}
					seq, base, epoch, mb, err := msg.DecodeDataHeader(frame[wireHdrLen:])
					if err != nil || lr.Stale(epoch, n.epochFloor(0)) {
						b.Fatalf("frame seq %d refused (err %v)", seq, err)
					}
					msg.PutDataSeq(frame, seq+span, base+span)
					pm := msg.GetMessage()
					if _, err := dec.DecodeMessageInto(pm, mb, nil); err != nil {
						b.Fatal(err)
					}
					n.inflight.Add(1)
					var dup bool
					deliver, dup = lr.Accept(seq, base, pm, deliver[:0])
					if dup {
						pm.Release()
						n.inflight.Add(-1)
					}
					for _, dm := range deliver {
						dm.Release()
						n.inflight.Add(-1)
					}
				}
			}
			pass() // warm the reorder buffer, the decoder and the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += bursts {
				pass()
			}
			b.StopTimer()
			if lr.Pending() > linkBenchBurst || n.inflight.Load() != int32(lr.Pending()) {
				b.Fatalf("receiver wedged: %d parked, %d in flight", lr.Pending(), n.inflight.Load())
			}
		})
	}
}
