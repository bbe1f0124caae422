package main

import (
	"bytes"
	"runtime"
	"time"

	"bdps/internal/broker"
	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/sim"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// Layer replay: the traced run pushes the workload's own generated
// inputs through each layer's public functions and times the calls from
// outside. Nothing in the program is instrumented.

// replayKit is what a workload hands the replay: its overlay, the
// broker path from the publisher to the measured subscriber, its
// subscription population and a sample of its publications.
type replayKit struct {
	ov       *topology.Overlay
	path     []msg.NodeID // ingress … edge
	subs     []*msg.Subscription
	msgs     []*msg.Message
	scenario msg.Scenario
	strategy core.Strategy
	params   core.Params
	indexed  bool // tables run the counting index (dynamic live tables do)
	depth    int  // output-queue depth the run reported (PeakQueue)
}

// hopCost is the replayed cost of one broker on the path, ns per
// message; zero fields are stages that broker does not run.
type hopCost struct {
	decode, process, match, enqueue, popBurst, encode float64
}

func (h hopCost) total() float64 { return h.decode + h.process + h.enqueue + h.popBurst + h.encode }

const (
	replayOps    = 10000
	replayBudget = 200 * time.Millisecond // per metric; heavy calls get fewer than replayOps, never under 500
	replayBatch  = 5
)

// nsPerOp times run(n) — which performs n operations and returns the
// time spent inside the calls under test — in five batches and returns
// the median ns/op.
func nsPerOp(run func(n int) time.Duration) float64 {
	probe := 50
	per := run(probe) / time.Duration(probe)
	total := replayOps
	if per > 0 {
		if fit := int(replayBudget / per); fit < total {
			total = max(fit, 500)
		}
	}
	n := max(total/replayBatch, 1)
	vals := make([]float64, replayBatch)
	for i := range vals {
		vals[i] = float64(run(n)) / float64(n)
	}
	return median(vals)
}

// replayLayers returns the generic per-layer metrics for a kit and the
// per-hop costs the trace attaches under each sampled publication.
func replayLayers(k *replayKit) (map[string]float64, []hopCost, error) {
	out := map[string]float64{}
	if err := replayMsg(k, out); err != nil {
		return nil, nil, err
	}
	replayFilter(k, out)
	hops, err := replayBrokers(k, out)
	if err != nil {
		return nil, nil, err
	}
	replayCore(k, out)
	for i := range hops {
		hops[i].decode = out["msg.decode_ns"]
		if i < len(hops)-1 {
			hops[i].enqueue = out["core.enqueue_ns"]
			hops[i].popBurst = out["core.pop_burst_ns"]
		}
		hops[i].encode = out["msg.encode_ns"]
	}
	replaySupport(k, out)
	return out, hops, nil
}

func replayMsg(k *replayKit, out map[string]float64) error {
	var buf []byte
	var bytesTotal int
	for _, m := range k.msgs {
		b, err := msg.AppendMessageFrame(buf[:0], m)
		if err != nil {
			return err
		}
		buf = b
		bytesTotal += len(b)
	}
	out["msg.frame_bytes"] = float64(bytesTotal) / float64(len(k.msgs))
	out["msg.encode_ns"] = nsPerOp(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf, _ = msg.AppendMessageFrame(buf[:0], k.msgs[i%len(k.msgs)])
		}
		return time.Since(t0)
	})

	// Decode exactly as the sharded read loop does: pooled frame buffer,
	// pooled message, payload aliasing the frame.
	var stream []byte
	for _, m := range k.msgs {
		stream, _ = msg.AppendMessageFrame(stream, m)
	}
	var dec msg.Decoder
	decode := func(n int) (time.Duration, error) {
		var rd bytes.Reader
		var fr *msg.FrameReader
		left := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if left == 0 {
				rd.Reset(stream)
				fr = msg.NewFrameReader(&rd)
				left = len(k.msgs)
			}
			left--
			fb := msg.GetFrameBuf()
			_, body, err := fr.Next(fb)
			if err != nil {
				return 0, err
			}
			m := msg.GetMessage()
			took, err := dec.DecodeMessageInto(m, body, fb)
			if !took {
				fb.Release()
			}
			m.Release()
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := decode(len(k.msgs)); err != nil { // also warms the pools
		return err
	}
	out["msg.decode_ns"] = nsPerOp(func(n int) time.Duration { d, _ := decode(n); return d })
	const allocRuns = 2000
	m0 := mallocs()
	_, _ = decode(allocRuns)
	out["msg.decode_allocs"] = float64(mallocs()-m0) / allocRuns

	subs := k.subs
	if len(subs) > 256 {
		subs = subs[:256]
	}
	var sbuf []byte
	out["msg.sub_codec_ns"] = nsPerOp(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			b, err := msg.AppendSubscription(sbuf[:0], subs[i%len(subs)])
			if err == nil {
				sbuf = b
				_, _ = msg.DecodeSubscription(b)
			}
		}
		return time.Since(t0)
	})
	return nil
}

func replayFilter(k *replayKit, out map[string]float64) {
	ix := filter.NewIndex()
	ids := make([]int32, len(k.subs))
	fs := make([]*filter.Filter, len(k.subs))
	for i, s := range k.subs {
		ids[i], fs[i] = int32(i), s.Filter
	}
	ix.AddBatch(ids, fs)
	var scratch filter.MatchScratch
	out["filter.index_match_ns"] = nsPerOp(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ix.MatchWith(&scratch, &k.msgs[i%len(k.msgs)].Attrs)
		}
		return time.Since(t0)
	})
}

// replica builds one broker of the path with the table the live flood
// (or the plan) would give it: every subscription installed with
// routing.Installer.InstallAt.
func (k *replayKit) replica(id msg.NodeID) (*broker.Broker, error) {
	table := routing.NewTable(id)
	if k.indexed {
		table.EnableIndex()
	}
	ins := routing.NewInstaller(k.ov, routing.Options{})
	for _, s := range k.subs {
		ins.InstallAt(id, table, s)
	}
	means := map[msg.NodeID]float64{}
	for _, e := range k.ov.Graph.Neighbors(id) {
		means[e.To] = e.Rate.Mean
	}
	return broker.New(broker.Config{
		ID: id, Scenario: k.scenario, Params: k.params, Strategy: k.strategy,
		Table: table, LinkMeans: means,
	})
}

func replayBrokers(k *replayKit, out map[string]float64) ([]hopCost, error) {
	hops := make([]hopCost, len(k.path))
	var deliveries, enqueues, calls float64
	var popped []*core.Entry
	for h, id := range k.path {
		b, err := k.replica(id)
		if err != nil {
			return nil, err
		}
		proc := b.NewProcessor()
		drain := func() {
			b.EachQueue(func(_ msg.NodeID, q *core.Queue) {
				popped, _ = q.PopBurst(k.strategy, 0, core.Params{}, q.Len(), popped[:0])
				for _, e := range popped {
					e.Release()
				}
			})
		}
		hops[h].process = nsPerOp(func(n int) time.Duration {
			var spent time.Duration
			for i := 0; i < n; {
				t0 := time.Now()
				for j := 0; j < 32 && i < n; i, j = i+1, j+1 {
					m := k.msgs[i%len(k.msgs)]
					res := proc.Process(m, m.Published)
					deliveries += float64(len(res.Deliveries))
					enqueues += float64(len(res.EnqueuedHops))
					calls++
				}
				spent += time.Since(t0)
				drain()
			}
			return spent
		})
		// The relay (or, on a two-broker path, the ingress) is where
		// routing.* is read: its table holds the whole population.
		if h == min(1, len(k.path)-1) {
			t := b.Table()
			var scratch filter.MatchScratch
			var buf []*routing.Entry
			hops[h].match = nsPerOp(func(n int) time.Duration {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					buf = t.MatchAppendWith(&scratch, k.msgs[i%len(k.msgs)], buf[:0])
				}
				return time.Since(t0)
			})
			out["routing.match_ns"] = hops[h].match
			var matched float64
			for _, m := range k.msgs {
				buf = t.MatchAppendWith(&scratch, m, buf[:0])
				matched += float64(len(buf))
			}
			out["routing.match_entries"] = matched / float64(len(k.msgs))
			out["routing.table_entries"] = float64(t.Len())
		}
	}
	var sum float64
	for _, h := range hops {
		sum += h.process
	}
	out["broker.process_ns"] = sum / float64(len(hops))
	// Per message over the whole path (the same messages ran at every hop).
	perHopCalls := calls / float64(len(k.path))
	out["broker.deliveries_per_msg"] = deliveries / perHopCalls
	out["broker.enqueues_per_msg"] = enqueues / perHopCalls
	return hops, nil
}

func replayCore(k *replayKit, out map[string]float64) {
	depth := max(k.depth, 1)
	newEntry := func(i int) *core.Entry {
		m := k.msgs[i%len(k.msgs)]
		allowed := m.Allowed
		if allowed <= 0 {
			allowed = 30 * vtime.Second
		}
		e := core.GetEntry()
		e.MsgID, e.SizeKB, e.Published = uint64(m.ID), m.SizeKB, m.Published
		e.Targets = append(e.Targets, core.Target{
			SubID: 1, Deadline: m.Published + allowed, Price: 1, Hops: 2,
			Rate: stats.Normal{Mean: 150, Sigma: 28},
		})
		return e
	}
	q := core.NewQueue(75)
	now := k.msgs[0].Published
	for i := 0; i < depth; i++ {
		q.Enqueue(newEntry(i), now)
	}
	const group = 32
	extra := make([]*core.Entry, group)
	out["core.enqueue_ns"] = nsPerOp(func(n int) time.Duration {
		var spent time.Duration
		for i := 0; i < n; i += group {
			for j := range extra {
				extra[j] = newEntry(i + j)
			}
			t0 := time.Now()
			for _, e := range extra {
				q.Enqueue(e, now)
			}
			spent += time.Since(t0)
			for range extra {
				q.RemoveAt(q.Len() - 1).Release()
			}
		}
		return spent
	})
	burst := min(group, depth)
	var popped []*core.Entry
	out["core.pop_burst_ns"] = nsPerOp(func(n int) time.Duration {
		var spent time.Duration
		for i := 0; i < n; i += burst {
			t0 := time.Now()
			popped, _ = q.PopBurst(k.strategy, now, k.params, burst, popped[:0])
			spent += time.Since(t0)
			for _, e := range popped {
				q.Enqueue(e, now)
			}
		}
		return spent
	})
	out["core.pop_next_ns"] = nsPerOp(func(n int) time.Duration {
		var spent time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			e, _ := q.PopNext(k.strategy, now, k.params)
			spent += time.Since(t0)
			if e != nil {
				q.Enqueue(e, now)
			}
		}
		return spent
	})
}

type noopRunner struct{}

func (noopRunner) Run() {}

// replaySupport times the layers under the schedulers and the set-up
// path: event engine, metrics collector, normal CDF, topology, workload.
func replaySupport(k *replayKit, out map[string]float64) {
	out["sim.engine_ns_per_event"] = engineNs()

	out["metrics.record_ns"] = nsPerOp(func(n int) time.Duration {
		var c metrics.Collector
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.DeliveredAt(int32(i&127), 1, -1, vtime.Millis(i%30000), i&7 != 0)
		}
		return time.Since(t0)
	})
	resultMs := make([]float64, replayBatch)
	for b := range resultMs {
		var c metrics.Collector
		for i := 0; i < 100000; i++ {
			c.DeliveredAt(-1, 1, -1, vtime.Millis((i*7919)%30000), true)
		}
		t0 := time.Now()
		_ = c.Result()
		resultMs[b] = float64(time.Since(t0)) / 1e6
	}
	out["metrics.result_ms"] = median(resultMs)

	var sink float64
	nrm := stats.Normal{Mean: 150, Sigma: 28}
	out["stats.cdf_ns"] = nsPerOp(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += nrm.CDF(float64(i % 300))
		}
		return time.Since(t0)
	})
	runtime.KeepAlive(sink)

	out["topology.build_ms"] = nsPerOp(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_, _ = topology.BuildLayered(topology.LayeredConfig{Seed: uint64(i + 1)})
		}
		return time.Since(t0)
	}) / 1e6
	src := k.path[0]
	out["topology.dijkstra_us"] = nsPerOp(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			k.ov.Graph.ShortestPaths(src)
		}
		return time.Since(t0)
	}) / 1e3
	// One publisher's hour at 12 msg/min plus the paper's 160-subscriber
	// population.
	out["workload.gen_ms"] = nsPerOp(func(n int) time.Duration {
		edges := make([]msg.NodeID, 16)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			wc := workload.Config{Seed: uint64(i + 1), Scenario: msg.PSD, RatePerMin: 12, Duration: vtime.Hour}
			wc.Subscriptions(edges)
			for p := wc.NewPublisher(0, 0); ; {
				if _, ok := p.Next(); !ok {
					break
				}
			}
		}
		return time.Since(t0)
	}) / 1e6
}

// engineNs is Engine.AtRun + Run over 1M no-op events, ns per event,
// median of five 200k-event batches.
func engineNs() float64 {
	const batch = 200000
	vals := make([]float64, replayBatch)
	for b := range vals {
		e := sim.New()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			e.AtRun(vtime.Millis(i%1000), noopRunner{})
		}
		e.Run()
		vals[b] = float64(time.Since(t0)) / batch
	}
	return median(vals)
}
