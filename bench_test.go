// Benchmarks regenerating every figure of the paper's evaluation section
// (Figures 4a–6b; Table 1 is a related-work taxonomy with no data), plus
// micro-benchmarks of the building blocks and ablation benches for the
// design choices documented in DESIGN.md.
//
// Figure benches run the experiment harness at bench scale (shorter
// window, one seed) — the full-scale reproduction is
// `bdps-sim -figure all` — and report the headline series values as
// custom metrics so regressions in *results*, not just speed, are
// visible. The paper-vs-measured comparison lives in EXPERIMENTS.md.
package bdps

import (
	"fmt"
	"testing"

	"bdps/internal/core"
	"bdps/internal/experiments"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// benchOpts is the bench-scale experiment configuration: same topology
// and workload laws as the paper, compressed window.
func benchOpts() experiments.Options {
	return experiments.Options{
		Seeds:    []uint64{1},
		Base:     SimConfig{Workload: workload.Config{Duration: 4 * vtime.Minute}},
		Rates:    []float64{6, 15},
		Weights:  []float64{0, 0.5, 1},
		Fig4Rate: experiments.Float(10),
	}
}

// BenchmarkFigure4a regenerates Figure 4(a): SSD earning vs EBPC weight.
func BenchmarkFigure4a(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Figure4a(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	mid := len(fig.Points) / 2
	b.ReportMetric(fig.Value(mid, "EBPC"), "EBPC_earning_k")
	b.ReportMetric(fig.Value(mid, "EB"), "EB_earning_k")
	b.ReportMetric(fig.Value(mid, "PC"), "PC_earning_k")
}

// BenchmarkFigure4b regenerates Figure 4(b): PSD delivery rate vs weight.
func BenchmarkFigure4b(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Figure4b(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	mid := len(fig.Points) / 2
	b.ReportMetric(fig.Value(mid, "EBPC"), "EBPC_delivery_pct")
	b.ReportMetric(fig.Value(mid, "EB"), "EB_delivery_pct")
}

// BenchmarkFigure5a regenerates Figure 5(a): SSD earning vs rate.
func BenchmarkFigure5a(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, _, err = experiments.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(fig.Points) - 1
	b.ReportMetric(fig.Value(last, "EB"), "EB_earning_k")
	b.ReportMetric(fig.Value(last, "FIFO"), "FIFO_earning_k")
	b.ReportMetric(fig.Value(last, "RL"), "RL_earning_k")
}

// BenchmarkFigure5b regenerates Figure 5(b): SSD message number vs rate.
func BenchmarkFigure5b(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		_, fig, err = experiments.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(fig.Points) - 1
	b.ReportMetric(fig.Value(last, "EB"), "EB_msgs_k")
	b.ReportMetric(fig.Value(last, "FIFO"), "FIFO_msgs_k")
	b.ReportMetric(fig.Value(last, "RL"), "RL_msgs_k")
}

// BenchmarkFigure6a regenerates Figure 6(a): PSD delivery rate vs rate.
func BenchmarkFigure6a(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, _, err = experiments.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(fig.Points) - 1
	b.ReportMetric(fig.Value(last, "EB"), "EB_delivery_pct")
	b.ReportMetric(fig.Value(last, "FIFO"), "FIFO_delivery_pct")
	b.ReportMetric(fig.Value(last, "RL"), "RL_delivery_pct")
}

// BenchmarkFigure6b regenerates Figure 6(b): PSD message number vs rate.
func BenchmarkFigure6b(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		_, fig, err = experiments.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(fig.Points) - 1
	b.ReportMetric(fig.Value(last, "EB"), "EB_msgs_k")
	b.ReportMetric(fig.Value(last, "FIFO"), "FIFO_msgs_k")
}

// benchAll regenerates every figure panel (4a–6b) in one harness pass.
func benchAll(b *testing.B, parallelism int) {
	var figs []*experiments.Figure
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Parallelism = parallelism
		var err error
		figs, err = experiments.All(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(figs)), "figures")
}

// BenchmarkFigureAllSequential is the serial baseline: the same grid
// and run cache on a single worker. (It is not the pre-PR-2 harness —
// cross-figure dedup applies at every parallelism — so the pair
// isolates pool scaling, not caching.)
func BenchmarkFigureAllSequential(b *testing.B) { benchAll(b, 1) }

// BenchmarkFigureAllParallel runs the same grid on all cores; the output
// is bit-identical (see experiments.TestParallelMatchesSequential), only
// the wall-clock changes.
func BenchmarkFigureAllParallel(b *testing.B) { benchAll(b, 0) }

// ---------------------------------------------------------------------
// Ablation benches: design choices under the congested PSD point.

func ablationRun(b *testing.B, mutate func(*SimConfig)) (delivery float64) {
	b.Helper()
	cfg := SimConfig{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Workload: workload.Config{RatePerMin: 12, Duration: 4 * vtime.Minute},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	var res float64
	for i := 0; i < b.N; i++ {
		r, err := RunSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r.DeliveryRate()
	}
	return res
}

// BenchmarkAblationEpsilonOn/Off quantify invalid-message detection §5.4.
func BenchmarkAblationEpsilonOn(b *testing.B) {
	d := ablationRun(b, nil)
	b.ReportMetric(100*d, "delivery_pct")
}

func BenchmarkAblationEpsilonOff(b *testing.B) {
	d := ablationRun(b, func(c *SimConfig) {
		c.Params = core.Params{PD: 2, Epsilon: 0}
	})
	b.ReportMetric(100*d, "delivery_pct")
}

// BenchmarkAblationMultipath2 runs DCP-style 2-path routing with dedup.
func BenchmarkAblationMultipath2(b *testing.B) {
	d := ablationRun(b, func(c *SimConfig) { c.Multipath = 2 })
	b.ReportMetric(100*d, "delivery_pct")
}

// BenchmarkAblationMeasuredRates estimates link parameters from 50
// samples instead of knowing them (oracle).
func BenchmarkAblationMeasuredRates(b *testing.B) {
	d := ablationRun(b, func(c *SimConfig) { c.MeasureSamples = 50 })
	b.ReportMetric(100*d, "delivery_pct")
}

// BenchmarkAblationLinkGamma swaps the normal link model for the
// shifted-gamma shape of the paper's refs [17,18].
func BenchmarkAblationLinkGamma(b *testing.B) {
	d := ablationRun(b, func(c *SimConfig) { c.LinkModel = LinkGamma })
	b.ReportMetric(100*d, "delivery_pct")
}

// BenchmarkAblationLinkFixed uses deterministic link rates (the
// fixed-bandwidth assumption the paper argues against).
func BenchmarkAblationLinkFixed(b *testing.B) {
	d := ablationRun(b, func(c *SimConfig) { c.LinkModel = LinkFixed })
	b.ReportMetric(100*d, "delivery_pct")
}

// BenchmarkAblationAcyclicTopology runs the §3.1 alternative topology.
func BenchmarkAblationAcyclicTopology(b *testing.B) {
	ov, err := topology.BuildAcyclic(topology.AcyclicConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	d := ablationRun(b, func(c *SimConfig) { c.Overlay = ov })
	b.ReportMetric(100*d, "delivery_pct")
}

// ---------------------------------------------------------------------
// Micro-benchmarks: the hot paths.

func BenchmarkFilterMatch(b *testing.B) {
	f := filter.MustParse("A1 < 6.5 && A2 < 3.2")
	attrs := msg.NumAttrs(map[string]float64{"A1": 5, "A2": 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pointer form, as the hot paths use it (no interface boxing).
		if !f.Match(&attrs) {
			b.Fatal("should match")
		}
	}
}

func BenchmarkFilterParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := filter.Parse("(A1 < 6.5 && A2 < 3.2) || tag == 'hot'"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalCDF(b *testing.B) {
	n := stats.Normal{Mean: 140, Sigma: 28}
	for i := 0; i < b.N; i++ {
		_ = n.CDF(float64(i % 300))
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stats.StdNormalQuantile(float64(i%999+1) / 1000)
	}
}

// benchQueue builds a queue with n entries of mixed urgency.
func benchQueue(n int) *core.Queue {
	q := core.NewQueue(70)
	for i := 0; i < n; i++ {
		e := &core.Entry{
			SizeKB:    50,
			Published: 0,
			Targets: []core.Target{{
				Deadline: vtime.Millis(10000 + i*500),
				Price:    float64(1 + i%3),
				Hops:     1 + i%3,
				Rate:     stats.Normal{Mean: 70 * float64(1+i%3), Sigma: 20},
			}},
		}
		q.Enqueue(e, 0)
	}
	return q
}

func benchPick(b *testing.B, s core.Strategy) {
	q := benchQueue(128)
	ctx := core.Context{Now: 5000, PD: 2, FT: 3500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Pick(q.Entries(), ctx) < 0 {
			b.Fatal("empty pick")
		}
	}
}

func BenchmarkPickFIFO(b *testing.B) { benchPick(b, core.FIFO{}) }
func BenchmarkPickRL(b *testing.B)   { benchPick(b, core.RL{}) }
func BenchmarkPickEB(b *testing.B)   { benchPick(b, core.MaxEB{}) }
func BenchmarkPickPC(b *testing.B)   { benchPick(b, core.MaxPC{}) }
func BenchmarkPickEBPC(b *testing.B) { benchPick(b, core.MaxEBPC{R: 0.5}) }

func BenchmarkQueuePrune(b *testing.B) {
	p := core.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := benchQueue(128)
		b.StartTimer()
		q.Prune(60000, p) // everything expired: worst case
	}
}

// paperTable builds the paper's 160-subscription population ("A1<x &&
// A2<y" filters) and returns the first ingress broker's table with a
// stream of the workload's own publications entering there.
func paperTable(b *testing.B) (*routing.Table, []*msg.Message) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.Config{Scenario: msg.SSD, Seed: 1}
	tables, err := routing.Build(ov, wl.Subscriptions(ov.Edges), routing.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pub := wl.NewPublisher(0, ov.Ingress[0])
	msgs := make([]*msg.Message, 512)
	for i := range msgs {
		msgs[i], _ = pub.Next()
	}
	return tables[ov.Ingress[0]], msgs
}

// benchTableMatch measures one table match the way brokers run it:
// through a caller-owned match scratch and a reused result buffer, over
// varying message content (a fixed message would train the branch
// predictor on one outcome per entry).
func benchTableMatch(b *testing.B, indexed bool) {
	tb, msgs := paperTable(b)
	if indexed {
		tb.EnableIndex()
	}
	var scratch filter.MatchScratch
	var buf []*routing.Entry
	matched := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tb.MatchAppendWith(&scratch, msgs[i%len(msgs)], buf[:0])
		matched += len(buf)
	}
	b.ReportMetric(float64(matched)/float64(b.N), "entries/op")
}

// BenchmarkLayer holds one isolated number per layer of the
// per-reception path, for the end-to-end budget to be checked against.
// scan-160 is the routing layer's table scan at the paper's size: what
// every hop of every simulated (and plan-deployed live) message pays.
func BenchmarkLayer(b *testing.B) {
	b.Run("scan-160", func(b *testing.B) { benchTableMatch(b, false) })
}

// BenchmarkTableMatchIndexed is the same match with the table forced
// onto an index (routing.Table.EnableIndex), which keeps these one-sided
// filters as rows of its rest scan.
func BenchmarkTableMatchIndexed(b *testing.B) { benchTableMatch(b, true) }

// BenchmarkTableMatchChosen is the evidence for routing.Table's matcher
// rule: one single-source table match, over shape × rows, with the
// matcher the table picks itself (chosen) and with the table forced onto
// an index (index, EnableIndex). Shapes: match-all (chain_small's one
// subscriber), paper ("A1 < x && A2 < y": sim_paper and mesh_paced) and
// fanout (fanout_match's "A1 > a && A1 < a+0.04 && A2 < b"). A table
// scans match-all and paper filters and posts fanout's in its index, so
// fanout's two arms run the same matcher.
func BenchmarkTableMatchChosen(b *testing.B) {
	s := stats.NewStream(11)
	shapes := []struct {
		name   string
		filter func() *filter.Filter
	}{
		{"match-all", func() *filter.Filter { return filter.MustParse("true") }},
		{"paper", func() *filter.Filter {
			return filter.And(filter.Lt("A1", s.Uniform(0, 10)), filter.Lt("A2", s.Uniform(0, 10)))
		}},
		{"fanout", func() *filter.Filter {
			a := s.Uniform(0, 9.96)
			return filter.And(filter.Gt("A1", a), filter.Lt("A1", a+0.04), filter.Lt("A2", s.Uniform(0, 10)))
		}},
	}
	msgs := make([]*msg.Message, 512)
	for i := range msgs {
		msgs[i] = &msg.Message{Attrs: msg.NumAttrs(map[string]float64{"A1": s.Uniform(0, 10), "A2": s.Uniform(0, 10)})}
	}
	for _, shape := range shapes {
		for _, n := range []int{1, 16, 160, 10_000} {
			subs := make([]*msg.Subscription, n)
			for i := range subs {
				subs[i] = &msg.Subscription{ID: msg.SubID(i), Edge: 5, Filter: shape.filter()}
			}
			for _, forced := range []bool{false, true} {
				arm := "chosen"
				if forced {
					arm = "index"
				}
				b.Run(fmt.Sprintf("%s-%d-%s", shape.name, n, arm), func(b *testing.B) {
					tb := routing.NewTable(0)
					for _, sub := range subs {
						tb.Add(&routing.Entry{Sub: sub, Source: 0, Next: 5})
					}
					if forced {
						tb.EnableIndex()
					}
					var scratch filter.MatchScratch
					var buf []*routing.Entry
					matched := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						buf = tb.MatchAppendWith(&scratch, msgs[i%len(msgs)], buf[:0])
						matched += len(buf)
					}
					b.ReportMetric(float64(matched)/float64(b.N), "entries/op")
				})
			}
		}
	}
}

// BenchmarkIndexMatch is one filter.Index match over 10 000
// subscriptions of each shape the index posts differently, on uniform
// publications: fanout (the fanout_match workload's "A1 > a && A1 < a+w
// && A2 < b", posted under the range), paper ("A1 < x && A2 < y", no
// access predicate: rows of the index's rest scan) and equality ("K == k && A2 < b", posted under the
// equality). fanout-10k-churned is fanout after 4 096 subscribe /
// unsubscribe pairs of the same shape outside the publications' range,
// as fanout_match churns its tables: the width class carries a tail and
// thousands of tombstones. matches/op says how much of the cost is the
// answer.
func BenchmarkIndexMatch(b *testing.B) {
	const n, churnPairs = 10_000, 4096
	s := stats.NewStream(7)
	fanout := make([]*filter.Filter, n)
	equality := make([]*filter.Filter, n)
	for i := range fanout {
		a := s.Uniform(0, 9.96)
		fanout[i] = filter.And(filter.Gt("A1", a), filter.Lt("A1", a+0.04), filter.Lt("A2", s.Uniform(0, 10)))
		equality[i] = filter.And(filter.Eq("K", filter.Num(float64(i%500))), filter.Lt("A2", s.Uniform(0, 10)))
	}
	msgs := make([]msg.AttrSet, 512)
	for i := range msgs {
		msgs[i] = msg.NumAttrs(map[string]float64{
			"A1": s.Uniform(0, 10), "A2": s.Uniform(0, 10), "K": float64(s.IntN(500)),
		})
	}
	churn := make([]*filter.Filter, churnPairs)
	for i := range churn {
		a := s.Uniform(20, 30)
		churn[i] = filter.And(filter.Gt("A1", a), filter.Lt("A1", a+0.04), filter.Lt("A2", s.Uniform(0, 10)))
	}
	for _, tc := range []struct {
		name    string
		filters []*filter.Filter
		churned bool
	}{
		{"fanout-10k", fanout, false},
		{"fanout-10k-churned", fanout, true},
		{"paper-10k", paperFilters(n), false},
		{"equality-10k", equality, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(i)
			}
			ix := filter.NewIndex()
			ix.AddBatch(ids, tc.filters)
			for i := 0; tc.churned && i < churnPairs; i++ {
				ix.Add(int32(n+i), churn[i])
				if i > 0 {
					ix.Remove(int32(n + i - 1))
				}
			}
			var scratch filter.MatchScratch
			matched := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matched += len(ix.MatchWith(&scratch, &msgs[i%len(msgs)]))
			}
			b.ReportMetric(float64(matched)/float64(b.N), "matches/op")
		})
	}
}

func BenchmarkRoutingBuild(b *testing.B) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	subs := (workload.Config{Scenario: msg.SSD, Seed: 1}).Subscriptions(ov.Edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.Build(ov, subs, routing.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := topology.BuildLayered(topology.LayeredConfig{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstra(b *testing.B) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov.Graph.ShortestPaths(msg.NodeID(i % 4))
	}
}

func BenchmarkCodecEncodeDecode(b *testing.B) {
	m := &msg.Message{
		ID: 42, Publisher: 1, Ingress: 0, Published: 1000, Allowed: 20000,
		SizeKB: 50,
		Attrs:  msg.NumAttrs(map[string]float64{"A1": 3.5, "A2": 7.25}),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := msg.AppendMessage(nil, m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := msg.DecodeMessage(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSecond measures simulator throughput: one simulated second
// of the paper's full system per reported unit.
func BenchmarkSimSecond(b *testing.B) {
	duration := vtime.Millis(b.N) * 20 // 20 simulated ms per iteration
	if duration < vtime.Minute {
		duration = vtime.Minute
	}
	r, err := RunSim(SimConfig{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Workload: workload.Config{RatePerMin: 10, Duration: duration},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(r.Receptions)/float64(b.N), "receptions/op")
}
