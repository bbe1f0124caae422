package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool    // harness self-test: everything cut to ≤ 1 s, one set-up
	outDir  string  // trace files
	pin     *pinner // nil: threads float (tests that call a runner directly)
}

// nextCPU moves the run on to its next CPU.
func (rc runCfg) nextCPU() {
	if rc.pin != nil {
		rc.pin.move()
	}
}

// wlResult is one workload's outcome.
type wlResult struct {
	Name string `json:"name"`
	// Ops counts publication × target pairs attempted; Failed the pairs
	// that broke a promise (see README "what counts as failed").
	Ops     int64             `json:"ops"`
	Failed  int64             `json:"failed"`
	Notes   []string          `json:"notes,omitempty"`
	Metrics map[string]sample `json:"metrics"`
	// NA names the per-layer metrics that have no meaning on this
	// workload; they are reported as 0.
	NA    []string `json:"na,omitempty"`
	WallS float64  `json:"wall_s"`
}

func (r *wlResult) notef(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

func (r *wlResult) fail(n int64, format string, a ...any) {
	if n > 0 {
		r.Failed += n
		r.notef("FAILED %d: "+format, append([]any{n}, a...)...)
	}
}

// put reports a metric: its value and the pieces behind it.
func (r *wlResult) put(name string, value float64, pieces ...float64) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0 // a ratio with an empty base; JSON has no NaN
	}
	r.Metrics[name] = sample{Value: value, Unit: specOf(name).Unit, N: len(pieces), Samples: pieces}
}

// one reports a whole-run value (no pieces behind it).
func (r *wlResult) one(name string, v float64) { r.put(name, v, v) }

// newTraceResult starts a traced run's result with every per-layer
// metric at 0, so each is reported whether or not the workload has it.
func newTraceResult(name string) *wlResult {
	res := &wlResult{Name: name, Metrics: map[string]sample{}}
	for _, m := range perLayer {
		res.one(m.Name, 0)
	}
	return res
}

// liveClusters is how many freshly set-up clusters share one run's
// latency phase, so that what is peculiar to one cluster (socket buffers,
// heap layout, where its goroutines happen to queue) sits inside the run
// and not between runs. Their set-ups are repetitions for setup_s.
const liveClusters = 5

// maxSetups caps the set-ups of one run: after the measured clusters,
// clusters are set up and stopped again until a fifth of the run has
// gone into set-up or this many repetitions exist.
const maxSetups = 15

func segDur(seconds float64, parts int) time.Duration {
	return time.Duration(seconds * float64(parts) / 24 * float64(time.Second))
}

// runLive carries one pacing-off live workload. On each of five fresh
// clusters: set-up, warm-up (discarded), a fifth of the one-at-a-time
// segments; on the last two also a capacity warm-up and half the
// capacity segments; then each cluster's ledger check.
func runLive(in *liveInputs, rc runCfg) (*wlResult, error) {
	if rc.trace {
		return traceLive(in, rc)
	}
	res := &wlResult{Name: in.Name, Metrics: map[string]sample{}}
	clusters, latSegs, capSegs := liveClusters, in.LatSegs, in.CapSegs
	if rc.smoke {
		clusters, latSegs, capSegs = 1, 4, 2 // a second holds that many segments of several windows
	}
	slice := time.Duration(in.SliceMs * float64(time.Millisecond))
	latN := max(latSegs/clusters, 1)
	latDur := segDur(rc.seconds, 15) / time.Duration(latN*clusters)
	// The capacity phase runs on the last two clusters (one per CPU), each
	// after two segments' worth of warm-up: throughput climbs for the first
	// second or so after the window opens.
	capClusters := min(2, clusters)
	capN := max(capSegs/capClusters, 1)
	capDur := segDur(rc.seconds, 9) / time.Duration((capN+2)*capClusters)
	var setups []float64
	var heap float64 // the first cluster's: later ones share the heap with this run's own samples
	var lat []segment
	var latW, capW []window
	for c := 0; c < clusters; c++ {
		rc.nextCPU()
		lc, err := startLive(in, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, lc.setupDur().Seconds())
		if c == 0 {
			heap = lc.heap
		}
		lc.startChurn()
		all := []segment{lc.closedLoop(1, min(400*time.Millisecond, 2*latDur), slice)}
		for i := 0; i < latN; i++ {
			seg := lc.closedLoop(1, latDur, slice)
			latW = append(latW, seg.windows()...)
			all = append(all, seg)
		}
		lat = append(lat, all[1:]...)
		if c >= clusters-capClusters {
			all = append(all, lc.closedLoop(in.Window, 2*capDur, slice))
			for i := 0; i < capN; i++ {
				seg := lc.closedLoop(in.Window, capDur, slice)
				capW = append(capW, seg.windows()...)
				all = append(all, seg)
			}
		}
		lc.stopChurn()
		err = lc.verify(res, all)
		lc.stop()
		if err != nil {
			return nil, err
		}
	}
	if len(latW) == 0 || len(capW) == 0 {
		return nil, fmt.Errorf("%s: segments of %v and %v are shorter than a %v window", in.Name, latDur, capDur, slice)
	}
	if !rc.smoke {
		if err := moreSetups(in, rc, &setups, rc.seconds/5); err != nil {
			return nil, err
		}
	}

	// Every set-up of a run does the same work: it costs what its fastest
	// repetition cost. (Its parts cannot be scored apart: on one P the
	// installs and the floods they cause take turns as the scheduler
	// pleases, and only their sum is the same from one set-up to the next.)
	res.put("setup_s", fastest(setups), setups...)

	// Latency over the calmest windows of the one-at-a-time phase, ranked
	// by their mean latency; p50 and p99 of those windows' pooled samples.
	var pool []float64
	var trips int
	for i := range latW {
		trips += len(latW[i].latUs)
	}
	for _, w := range calmest(latW, max(calmShare, minPool/float64(trips)), lower, (*window).mean) {
		pool = append(pool, w.latUs...)
	}
	sort.Float64s(pool)
	res.put("p50_us", percentile(pool, 0.50), perOf(latW, func(w *window) float64 { return w.p(0.50) })...)
	res.put("p99_us", percentile(pool, 0.99), perOf(latW, func(w *window) float64 { return w.p(0.99) })...)

	var done int
	var wall time.Duration
	for _, w := range calmest(capW, calmShare, higher, (*window).rate) {
		done += len(w.latUs)
		wall += w.wall
	}
	res.put("msgs_per_s", float64(done)/wall.Seconds(), perOf(capW, (*window).rate)...)

	// Counts do not depend on how fast the box runs: whole phase.
	var pubs, mallocs, within float64
	for i := range lat {
		pubs += float64(lat[i].n)
		mallocs += float64(lat[i].mallocs)
		within += lat[i].within(in.LimitMs) * float64(lat[i].n)
	}
	res.put("allocs_per_msg", mallocs/pubs, perOf(lat, func(s *segment) float64 { return float64(s.mallocs) / float64(s.n) })...)
	res.put("attain_frac", within/pubs, perOf(lat, func(s *segment) float64 { return s.within(in.LimitMs) })...)
	res.one("state_heap_mb", heap)
	return res, nil
}

func perOf[T any](xs []T, f func(*T) float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = f(&xs[i])
	}
	return out
}

// moreSetups sets clusters up and stops them again, for setup_s alone.
func moreSetups(in *liveInputs, rc runCfg, setups *[]float64, budgetS float64) error {
	var spent float64
	for _, s := range *setups {
		spent += s
	}
	for len(*setups) < maxSetups && spent < budgetS {
		rc.nextCPU()
		lc, err := startLive(in, false)
		if err != nil {
			return err
		}
		lc.stop()
		*setups = append(*setups, lc.setupDur().Seconds())
		spent += lc.setupDur().Seconds()
	}
	return nil
}

// clientBuffer is livenet.Subscriber's delivery channel depth: a
// receiver silent for longer than it takes the reference rate to fill
// it loses deliveries in the client library, not in the system.
const clientBuffer = 256

// judgeHealth marks an open-loop segment that measured the generator
// instead of the system: the sender's p99 lateness exceeded a tenth of
// the latency limit (never less than 1 ms, the scheduler's own
// granularity on a 2-core box), or the receiving goroutine was not run
// for most of the client buffer's worth of traffic.
func (in *liveInputs) judgeHealth(seg *segment, rate float64) {
	lateLimit := max(in.LimitMs*100, 1000)
	gapLimit := time.Duration(0.8 * clientBuffer / rate * float64(time.Second))
	switch late := percentile(seg.lateUs, 0.99); {
	case late > lateLimit:
		seg.invalid = fmt.Sprintf("generator p99 lateness %.0f us > %.0f us (p99 publish call %.0f us, receiver gap %v)", late, lateLimit, percentile(seg.callNs, 0.99)/1e3, seg.maxGap)
	case seg.maxGap > gapLimit:
		seg.invalid = fmt.Sprintf("receiver silent for %v > %v", seg.maxGap, gapLimit)
	}
}

// verify is the correctness gate of the pacing-off workloads: every
// publication reaches the attached client exactly once, and the
// brokers' ledger accounts every (publication, subscription) pair the
// benchmark's own reference says must be delivered — nothing dropped,
// nothing late, nothing twice. Segments flagged stress may lose
// deliveries at the client (that loss is their measured outcome).
func (lc *liveCluster) verify(res *wlResult, segs []segment) error {
	if err := lc.quiesce(10 * time.Second); err != nil {
		return err
	}
	var pubs, content int64
	for i := range segs {
		s := &segs[i]
		pubs += int64(s.n)
		content += s.expected
		res.fail(int64(s.pubErrs), "publish errors")
		res.fail(int64(s.dups), "publications delivered twice to the attached client")
		switch {
		case s.missing == 0:
		case s.stress || s.invalid != "":
			res.notef("%d publications lost in the client library's buffer (segment excused: stress step or %s)", s.missing, s.invalid)
		default:
			res.fail(int64(s.missing), "publications never received by the attached client")
		}
	}
	res.Ops += pubs + content
	res.fail(lc.rcv.stray.Load(), "deliveries outside any segment (late duplicate or foreign message)")
	st := lc.c.TotalStats()
	dDeliv := int64(st.Deliveries - lc.base.Deliveries)
	dValid := int64(st.ValidDeliver - lc.base.ValidDeliver)
	if want := pubs + content; dDeliv != want {
		res.fail(abs64(dDeliv-want), "broker deliveries %d, reference %d (conservation)", dDeliv, want)
	}
	res.fail(dDeliv-dValid, "deliveries counted late under a 60 s bound")
	drops := st.DropsExpired + st.DropsHopeless + st.DropsArrival + st.DropsShed + st.DroppedDeadline +
		st.PubsRejected + st.Duplicates
	res.fail(int64(drops), "drops on a pacing-off workload (expired %d hopeless %d arrival %d shed %d rejected %d dup %d)",
		st.DropsExpired, st.DropsHopeless, st.DropsArrival, st.DropsShed, st.PubsRejected, st.Duplicates)
	return nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// kit builds the replay inputs from the workload's own data.
func (lc *liveCluster) kit() (*replayKit, error) {
	ov, err := lc.in.overlay(false)
	if err != nil {
		return nil, err
	}
	path, ok := ov.Graph.Path(lc.ingress, lc.edge)
	if !ok {
		return nil, fmt.Errorf("%s: no path %d→%d", lc.in.Name, lc.ingress, lc.edge)
	}
	k := &replayKit{
		ov: ov, path: path, scenario: msg.PSD, strategy: core.MaxEB{}, params: core.DefaultParams(),
		indexed: true, depth: lc.c.PeakQueue(),
	}
	// The attached client's match-all subscription is part of the tables.
	k.subs = append(k.subs, &msg.Subscription{ID: 1, Edge: lc.edge, Filter: &filter.Filter{}})
	for _, s := range lc.in.Subs {
		k.subs = append(k.subs, s.build())
	}
	now := lc.c.Clock().Now()
	for i := 0; i < 512; i++ {
		k.msgs = append(k.msgs, &msg.Message{
			ID: msg.MakeID(0, uint32(i)), Ingress: lc.ingress, Published: now, Allowed: liveBound,
			SizeKB: float64(len(lc.payload)) / 1024, Attrs: lc.attrs[i%len(lc.attrs)], Payload: lc.payload,
		})
	}
	return k, nil
}

// traceLive is the traced run of a pacing-off workload: one untraced and
// one traced open-loop segment (their difference is the tracing
// overhead), the 4× step, one closed-loop segment, install/remove timing
// on the quiet cluster, the same open-loop segment on the overlay with
// the relay removed, then the layer replay. Spans go to
// <out>/<workload>.trace.jsonl.
func traceLive(in *liveInputs, rc runCfg) (*wlResult, error) {
	res := newTraceResult(in.Name)
	lc, err := startLive(in, false)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			lc.stop()
		}
	}()
	dur := segDur(rc.seconds, 3)
	lc.startChurn()
	all := []segment{lc.openLoop(in.Rate, min(time.Second, dur/2), false)}
	plain := lc.openLoop(in.Rate, dur, false)
	traced := lc.openLoop(in.Rate, dur, true)
	hi := lc.openLoop(4*in.Rate, dur, false)
	hi.stress = true
	closed := lc.closedLoop(in.Window, dur, dur)
	lc.stopChurn()
	tDrain := time.Now()
	all = append(all, plain, traced, hi, closed)
	if err := lc.verify(res, all); err != nil {
		return nil, err
	}
	drain := time.Since(tDrain)

	// Subscribe/Unsubscribe call time on the now-quiet cluster.
	node := lc.c.Nodes[lc.edge]
	nChurn := min(500, len(in.Churn))
	install, remove := make([]float64, nChurn), make([]float64, nChurn)
	for i, s := range in.Churn[len(in.Churn)-nChurn:] {
		s.Edge = int32(lc.edge)
		sub := s.build()
		t0 := time.Now()
		node.Subscribe(sub)
		install[i] = float64(time.Since(t0)) / 1e3
		t0 = time.Now()
		node.Unsubscribe(sub.ID)
		remove[i] = float64(time.Since(t0)) / 1e3
	}
	if err := lc.quiesce(5 * time.Second); err != nil {
		return nil, err
	}

	st := lc.c.TotalStats()
	pubs := float64(lc.seq)
	kit, err := lc.kit()
	if err != nil {
		return nil, err
	}
	set := res.one
	set("routing.install_us", median(install))
	set("routing.remove_us", median(remove))
	set("routing.table_heap_mb", lc.tableHeap)
	set("core.peak_queue", float64(kit.depth))
	set("livenet.publish_call_ns", median(traced.callNs))
	set("livenet.open_p50_us", plain.p(0.50))
	set("livenet.open_p99_us", plain.p(0.99))
	set("cpu_us_per_msg", float64(plain.cpu.Microseconds())/float64(plain.n))
	set("livenet.open_attain_frac", plain.within(in.LimitMs))
	set("livenet.closed_cpu_us_per_msg", float64(closed.cpu.Microseconds())/float64(closed.n))
	set("livenet.closed_p50_us", closed.p(0.50))
	set("livenet.p99_hi_us", hi.p(0.99))
	set("livenet.loss_hi_frac", float64(hi.missing)/float64(hi.n))
	set("livenet.receptions_per_msg", float64(st.Receptions-lc.base.Receptions)/pubs)
	set("livenet.deliveries_per_msg", float64(st.Deliveries-lc.base.Deliveries)/pubs)
	set("livenet.sub_client_drops", float64(hi.missing))
	set("livenet.drain_ms", float64(drain)/1e6)
	set("livenet.cluster_start_ms", float64(lc.startDur)/1e6)
	set("livenet.flood_us_per_sub", float64(lc.installDur+lc.settleDur)/1e3/float64(len(in.Subs)+1))
	set("livenet.gen_late_p99_us", percentile(traced.lateUs, 0.99))
	set("trace_overhead_frac", (traced.p(0.50)-plain.p(0.50))/plain.p(0.50))
	lc.stop()
	stopped = true

	// One hop's price: the same segment with the relay broker removed.
	short, err := startLive(in, true)
	if err != nil {
		return nil, err
	}
	short.startChurn()
	warm := short.openLoop(in.Rate, min(time.Second, dur/2), false)
	shortSeg := short.openLoop(in.Rate, dur, false)
	short.stopChurn()
	err = short.verify(res, []segment{warm, shortSeg})
	short.stop()
	if err != nil {
		return nil, err
	}
	set("livenet.hop_p50_us", (plain.p(0.50)+traced.p(0.50))/2-shortSeg.p(0.50))

	layers, hops, err := replayLayers(kit)
	if err != nil {
		return nil, err
	}
	for name, v := range layers {
		set(name, v)
	}
	var hopNs float64
	for _, h := range hops {
		hopNs += h.total()
	}
	e2e, wait, call := traced.p(0.50), median(traced.lateUs), median(traced.callNs)/1e3
	set("trace.e2e_p50_us", e2e)
	set("trace.gen_wait_us", wait)
	set("trace.hop_replay_us", hopNs/1e3)
	// By construction: gen.wait + publish_call + Σ hop replay + unaccounted = e2e p50.
	set("livenet.unaccounted_us", e2e-wait-call-hopNs/1e3)

	var tr tracer
	for _, p := range traced.spans {
		tr.publication(p, hops)
	}
	if err := tr.write(rc.outDir, in.Name); err != nil {
		return nil, err
	}
	res.NA = []string{"runtime.plan_ms", "runtime.account_pubs_ms", "runtime.sim_attain_frac", "runtime.attain_gap",
		"simnet.cell_ms_p50", "simnet.cell_allocs", "simnet.receptions_per_s"}
	return res, nil
}
