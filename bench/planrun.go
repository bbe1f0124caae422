package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"bdps/internal/core"
	"bdps/internal/livenet"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/topology"
	"bdps/internal/trace"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// The two plan-based workloads: mesh_paced (the paper's experiment on
// the sharded live plane, link pacing on) and sim_paper (the paper's
// grid on the simulator). Both run the steps of runtime.Run one by one
// — NewPlan, Deploy, AccountPublications, Inject, Drain, Result — so the
// benchmark can time each from outside.

// paperWorld is the fixed part of both workloads: the paper's overlay
// and its 160-subscriber populations.
type paperWorld struct {
	ov   *topology.Overlay
	subs map[msg.Scenario][]*msg.Subscription
}

func newPaperWorld(in *planInputs) (*paperWorld, error) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: in.TopologySeed})
	if err != nil {
		return nil, err
	}
	w := &paperWorld{ov: ov, subs: map[msg.Scenario][]*msg.Subscription{}}
	for _, sc := range []msg.Scenario{msg.PSD, msg.SSD} {
		w.subs[sc] = workload.Config{Seed: in.PopulationSeed, Scenario: sc}.Subscriptions(ov.Edges)
	}
	return w, nil
}

func (w *paperWorld) config(c cellSpec) (runtime.Config, error) {
	strat, err := core.ParseStrategy(c.Strategy)
	if err != nil {
		return runtime.Config{}, err
	}
	sc := msg.PSD
	if c.Scenario == "SSD" {
		sc = msg.SSD
	}
	params := core.DefaultParams()
	switch strat.(type) {
	case core.FIFO, core.RL:
		params.Epsilon = 0 // traditional strategies have no invalid-message detection
	}
	return runtime.Config{
		Seed: c.RunSeed, Scenario: sc, Strategy: strat, Params: params,
		Overlay: w.ov, Subscriptions: w.subs[sc],
		Workload: workload.Config{
			Seed: c.WorkloadSeed, RatePerMin: c.RatePerMin,
			Duration: vtime.Millis(c.DurationMin * float64(vtime.Minute)),
		},
	}, nil
}

// ledgerCheck applies the conservation rule to one finished run: every
// published × interested pair is delivered (valid or late) or belongs
// to a dropped queue entry. Drops are counted per entry and an entry
// carries one or more targets, so exact equality is not available from
// the public counters; what must hold is deliveries + drops ≤ targets,
// and no missing target without a drop cause.
func ledgerCheck(res *wlResult, label string, r metrics.Result) {
	drops := int64(r.DropsExpired + r.DropsHopeless + r.DropsArrival + r.DropsCrashed + r.DropsShed + r.DroppedDeadline)
	missing := int64(r.TotalTargets - r.ValidDeliveries - r.LateDeliveries)
	res.Ops += int64(r.TotalTargets)
	switch {
	case missing < 0:
		res.fail(-missing, "%s: more deliveries than targets (delivered twice)", label)
	case drops > missing:
		res.fail(drops-missing, "%s: more dropped entries than undelivered targets", label)
	case missing > 0 && drops == 0:
		res.fail(missing, "%s: targets lost without a drop cause", label)
	}
}

// ---------------------------------------------------------------------
// sim_paper

// cellCounts is one cell's ledger, the golden file's row.
type cellCounts struct {
	Cell          string `json:"cell"`
	Published     int    `json:"published"`
	Targets       int    `json:"targets"`
	Valid         int    `json:"valid"`
	Late          int    `json:"late"`
	DropsExpired  int    `json:"drops_expired"`
	DropsHopeless int    `json:"drops_hopeless"`
	DropsArrival  int    `json:"drops_arrival"`
	Receptions    int    `json:"receptions"`
}

func (c cellSpec) label() string {
	return fmt.Sprintf("%s/%s/%g", c.Scenario, c.Strategy, c.RatePerMin)
}

func countsOf(c cellSpec, r metrics.Result) cellCounts {
	return cellCounts{c.label(), r.Published, r.TotalTargets, r.ValidDeliveries, r.LateDeliveries,
		r.DropsExpired, r.DropsHopeless, r.DropsArrival, r.Receptions}
}

//go:embed golden/sim_paper.seed1.json
var goldenSimPaper []byte

// simCell is one executed cell with the benchmark's own timings.
type simCell struct {
	res                 metrics.Result
	plan, account, wall time.Duration // wall covers plan → result
	result              time.Duration
	// pieces splits wall into stretches of the same work in every pass:
	// NewPlan, feeding the network (deploy, accounting, inject), each
	// simStep of virtual time, Result.
	pieces  []time.Duration
	mallocs uint64
	heapMB  float64 // live heap after NewPlan, when asked for
	peak    int
	plan0   *runtime.Plan // kept only when asked for (replay kit)
}

// simStep is the virtual time the engine advances per timed piece: a
// few milliseconds of wall time.
const simStep = vtime.Minute

// runSimCell executes one cell step by step. tr/parent record the spans
// of a traced pass; tracer is the program's own event trace, used only
// by the verification pass.
func runSimCell(cfg runtime.Config, wantHeap, keepPlan bool, tr *tracer, cellID uint64, tracer trace.Tracer) (simCell, error) {
	var c simCell
	cfg.Tracer = tracer
	m0 := mallocs()
	t0 := time.Now()
	s0 := nowNs()
	p, err := runtime.NewPlan(cfg)
	if err != nil {
		return c, err
	}
	c.plan = time.Since(t0)
	s1 := nowNs()
	var gcPause time.Duration
	if wantHeap {
		g0 := time.Now()
		c.heapMB = heapMB()
		gcPause = time.Since(g0)
	}
	s2 := nowNs()
	dep, err := simnet.Transport{}.Deploy(p)
	if err != nil {
		return c, err
	}
	defer dep.Close()
	ta := time.Now()
	p.AccountPublications()
	c.account = time.Since(ta)
	if err := dep.Inject(p.Pubs); err != nil {
		return c, err
	}
	// Drain, in steps of virtual time: the same events in the same order
	// as Engine.Run, timed piece by piece.
	eng := dep.(*simnet.Network).Engine
	c.pieces = append(c.pieces, c.plan, time.Duration(nowNs()-s2))
	for eng.Pending() > 0 {
		st := time.Now()
		eng.RunUntil(eng.Now() + simStep)
		c.pieces = append(c.pieces, time.Since(st))
	}
	s3 := nowNs()
	tr0 := time.Now()
	c.res = p.Metrics.Result()
	c.result = time.Since(tr0)
	c.pieces = append(c.pieces, c.result)
	s4 := nowNs()
	c.wall = time.Since(t0) - gcPause
	c.mallocs = mallocs() - m0
	c.peak = dep.PeakQueue()
	if keepPlan {
		c.plan0 = p
	}
	if tr != nil {
		root := tr.add("cell", s0, s4, -1, cellID)
		tr.add("runtime.plan", s0, s1, root, cellID)
		tr.add("simnet.run", s2, s3, root, cellID)
		tr.add("metrics.result", s3, s4, root, cellID)
	}
	return c, nil
}

// simPass is one sequential pass over the grid.
type simPass struct {
	cells       []simCell
	cpu         time.Duration
	published   int
	attain      float64 // mean DeliveryRate over cells
	wall, setup time.Duration
}

func runSimPass(w *paperWorld, in *planInputs, heapCell int, keepPlan bool, tr *tracer) (simPass, error) {
	var ps simPass
	cpu0 := cpuTime()
	for i, c := range in.Cells {
		cfg, err := w.config(c)
		if err != nil {
			return ps, err
		}
		cell, err := runSimCell(cfg, i == heapCell, keepPlan && i == heapCell, tr, uint64(i), nil)
		if err != nil {
			return ps, fmt.Errorf("cell %s: %w", c.label(), err)
		}
		ps.cells = append(ps.cells, cell)
		ps.published += cell.res.Published
		ps.attain += cell.res.DeliveryRate() / float64(len(in.Cells))
		ps.wall += cell.wall
		ps.setup += cell.plan
	}
	ps.cpu = cpuTime() - cpu0
	return ps, nil
}

func (ps *simPass) cellWallsUs() []float64 {
	out := make([]float64, len(ps.cells))
	for i, c := range ps.cells {
		out[i] = float64(c.wall) / 1e3
	}
	sort.Float64s(out)
	return out
}

// heaviestCell is the index of the PSD/eb/18 cell (the grid's busiest),
// or 0 in a cut-down grid.
func heaviestCell(in *planInputs) int {
	for i, c := range in.Cells {
		if c.Scenario == "PSD" && c.Strategy == "eb" && c.RatePerMin == 18 {
			return i
		}
	}
	return 0
}

// simPasses is how often a run repeats the grid: the repetitions of
// each piece of each cell.
const simPasses = 20

// simMinutes is the emulated publishing window of a sim_paper cell.
func simMinutes(rc runCfg) float64 {
	switch {
	case rc.smoke:
		return 10
	case rc.trace:
		return rc.seconds * 1.5
	}
	return rc.seconds / 2
}

func runSimPaper(rc runCfg) (*wlResult, error) {
	in := simPaperInputs(rc.seed, simMinutes(rc), rc.smoke)
	w, err := newPaperWorld(in)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return traceSimPaper(w, in, rc)
	}
	res := &wlResult{Name: in.Name, Metrics: map[string]sample{}}
	passes := simPasses
	if rc.smoke {
		passes = 1
	}
	heavy := heaviestCell(in)
	var all []simPass
	for i := 0; i < passes; i++ {
		rc.nextCPU()
		ps, err := runSimPass(w, in, heavy, false, nil)
		if err != nil {
			return nil, err
		}
		all = append(all, ps)
	}
	first := all[0]
	for i, c := range first.cells {
		ledgerCheck(res, in.Cells[i].label(), c.res)
	}
	// Deterministic per seed: every pass must reproduce the first.
	for _, ps := range all[1:] {
		for i := range ps.cells {
			if countsOf(in.Cells[i], ps.cells[i].res) != countsOf(in.Cells[i], first.cells[i].res) ||
				len(ps.cells[i].pieces) != len(first.cells[i].pieces) {
				res.fail(1, "cell %s differs between passes of one seed", in.Cells[i].label())
			}
		}
	}
	if rc.seed == 1 && rc.seconds == runSeconds && !rc.smoke {
		checkGolden(res, in, first)
	}

	// Every pass does the same work piece by piece (checked above: same
	// ledger, same number of pieces), so a piece costs what its fastest
	// repetition cost; a cell, and the pass, are assembled from those.
	pass := func(f func(*simPass) float64) []float64 { return perOf(all, f) }
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	wallsUs := make([]float64, len(in.Cells))
	plans := make([]float64, len(in.Cells))
	for i := range in.Cells {
		for k := range first.cells[i].pieces {
			best := fastest(perOf(all, func(p *simPass) float64 {
				if k >= len(p.cells[i].pieces) {
					return math.Inf(1) // cannot happen while the passes agree; checked above
				}
				return float64(p.cells[i].pieces[k]) / 1e3
			}))
			wallsUs[i] += best
			if k == 0 {
				plans[i] = best / 1e6
			}
		}
	}
	sort.Float64s(wallsUs)
	res.put("setup_s", sum(plans), pass(func(p *simPass) float64 { return p.setup.Seconds() })...)
	res.put("p50_us", percentile(wallsUs, 0.50), pass(func(p *simPass) float64 { return percentile(p.cellWallsUs(), 0.50) })...)
	res.put("p99_us", percentile(wallsUs, 0.99), pass(func(p *simPass) float64 { return percentile(p.cellWallsUs(), 0.99) })...)
	res.put("msgs_per_s", float64(first.published)/(sum(wallsUs)/1e6),
		pass(func(p *simPass) float64 { return float64(p.published) / p.wall.Seconds() })...)
	allocs := pass(func(p *simPass) float64 {
		var m uint64
		for _, c := range p.cells {
			m += c.mallocs
		}
		return float64(m) / float64(p.published)
	})
	res.put("allocs_per_msg", fastest(allocs), allocs...)
	res.put("attain_frac", first.attain, pass(func(p *simPass) float64 { return p.attain })...)
	heaps := pass(func(p *simPass) float64 { return p.cells[heavy].heapMB })
	res.put("state_heap_mb", fastest(heaps), heaps...)
	return res, nil
}

func checkGolden(res *wlResult, in *planInputs, ps simPass) {
	var want []cellCounts
	if err := json.Unmarshal(goldenSimPaper, &want); err != nil || len(want) != len(ps.cells) {
		res.fail(1, "golden/sim_paper.seed1.json unreadable or wrong size (%d rows, %d cells): %v", len(want), len(ps.cells), err)
		return
	}
	for i, c := range ps.cells {
		if got := countsOf(in.Cells[i], c.res); got != want[i] {
			res.fail(1, "golden mismatch at %s: got %+v want %+v", in.Cells[i].label(), got, want[i])
		}
	}
}

// goldenJSON renders the seed-1 golden file from a fresh pass.
func goldenJSON() ([]byte, error) {
	rc := runCfg{seed: 1, seconds: runSeconds}
	in := simPaperInputs(rc.seed, simMinutes(rc), false)
	w, err := newPaperWorld(in)
	if err != nil {
		return nil, err
	}
	ps, err := runSimPass(w, in, -1, false, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]cellCounts, len(ps.cells))
	for i, c := range ps.cells {
		rows[i] = countsOf(in.Cells[i], c.res)
	}
	out, err := json.MarshalIndent(rows, "", " ")
	return append(out, '\n'), err
}

// planKit builds the replay inputs from an executed plan: the path from
// the first publisher's ingress to the first subscriber's edge.
func planKit(p *runtime.Plan, depth int) (*replayKit, error) {
	src, dst := p.Overlay.Ingress[0], p.Subs[0].Edge
	path, ok := p.Overlay.Graph.Path(src, dst)
	if !ok {
		return nil, fmt.Errorf("no path %d→%d in the paper overlay", src, dst)
	}
	k := &replayKit{
		ov: p.Overlay, path: path, subs: p.Subs, scenario: p.Cfg.Scenario, strategy: p.Cfg.Strategy,
		params: p.Cfg.Params, depth: depth,
	}
	for _, m := range p.Pubs {
		if m.Ingress == src && len(k.msgs) < 512 {
			k.msgs = append(k.msgs, m)
		}
	}
	if len(k.msgs) == 0 {
		return nil, fmt.Errorf("plan has no publication at ingress %d", src)
	}
	return k, nil
}

// verifySimTrace re-runs one cell with the simulator's own event trace
// on and checks, delivery by delivery, that no (message, subscriber)
// pair is delivered twice and that exactly the deliveries inside their
// bound were counted valid.
func verifySimTrace(res *wlResult, w *paperWorld, c cellSpec) error {
	cfg, err := w.config(c)
	if err != nil {
		return err
	}
	var buf trace.Buffer
	cell, err := runSimCell(cfg, false, true, nil, 0, &buf)
	if err != nil {
		return err
	}
	p := cell.plan0
	pubs := make(map[uint64]*msg.Message, len(p.Pubs))
	for _, m := range p.Pubs {
		pubs[uint64(m.ID)] = m
	}
	subs := make(map[int32]*msg.Subscription, len(p.Subs))
	for _, s := range p.Subs {
		subs[int32(s.ID)] = s
	}
	type pair struct {
		m uint64
		s int32
	}
	seen := make(map[pair]bool)
	var inBound, twice int64
	for _, ev := range buf.Events {
		if ev.Kind != trace.Deliver {
			continue
		}
		k := pair{ev.MsgID, ev.Peer}
		if seen[k] {
			twice++
		}
		seen[k] = true
		m, s := pubs[ev.MsgID], subs[ev.Peer]
		if m == nil || s == nil {
			res.fail(1, "%s: delivery of unknown message/subscriber", c.label())
			continue
		}
		if allowed, _ := p.Cfg.Scenario.AllowedDelay(m, s); allowed > 0 && ev.T-m.Published <= allowed {
			inBound++
		}
	}
	res.fail(twice, "%s: (message, subscriber) pairs delivered twice", c.label())
	res.fail(abs64(int64(cell.res.ValidDeliveries)-inBound), "%s: %d deliveries counted valid, %d inside their bound",
		c.label(), cell.res.ValidDeliveries, inBound)
	return nil
}

func traceSimPaper(w *paperWorld, in *planInputs, rc runCfg) (*wlResult, error) {
	res := newTraceResult(in.Name)
	heavy := heaviestCell(in)
	plain, err := runSimPass(w, in, heavy, false, nil)
	if err != nil {
		return nil, err
	}
	var tr tracer
	traced, err := runSimPass(w, in, heavy, true, &tr)
	if err != nil {
		return nil, err
	}
	for i, c := range traced.cells {
		ledgerCheck(res, in.Cells[i].label(), c.res)
	}
	for _, i := range []int{heavy, len(in.Cells) - 1} {
		if err := verifySimTrace(res, w, in.Cells[i]); err != nil {
			return nil, err
		}
	}

	set := res.one
	var cellMs, cellAllocs, planMs, accountMs, resultMs []float64
	var receptions, targets, expired, hopeless, arrival, peak int
	for _, c := range traced.cells {
		cellMs = append(cellMs, float64(c.wall)/1e6)
		cellAllocs = append(cellAllocs, float64(c.mallocs))
		planMs = append(planMs, float64(c.plan)/1e6)
		accountMs = append(accountMs, float64(c.account)/1e6)
		resultMs = append(resultMs, float64(c.result)/1e6)
		receptions += c.res.Receptions
		targets += c.res.TotalTargets
		expired += c.res.DropsExpired
		hopeless += c.res.DropsHopeless
		arrival += c.res.DropsArrival
		peak = max(peak, c.peak)
	}
	kit, err := planKit(traced.cells[heavy].plan0, traced.cells[heavy].peak)
	if err != nil {
		return nil, err
	}
	layers, _, err := replayLayers(kit)
	if err != nil {
		return nil, err
	}
	for name, v := range layers {
		set(name, v)
	}
	set("simnet.cell_ms_p50", median(cellMs))
	set("simnet.cell_allocs", median(cellAllocs))
	set("simnet.receptions_per_s", float64(receptions)/traced.wall.Seconds())
	set("runtime.plan_ms", median(planMs))
	set("runtime.account_pubs_ms", median(accountMs))
	set("runtime.sim_attain_frac", traced.attain)
	set("core.drops_expired_frac", float64(expired)/float64(targets))
	set("core.drops_hopeless_frac", float64(hopeless)/float64(targets))
	set("core.drops_arrival_frac", float64(arrival)/float64(targets))
	set("core.peak_queue", float64(peak))
	set("cpu_us_per_msg", float64(plain.cpu.Microseconds())/float64(plain.published))
	set("trace_overhead_frac", (traced.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())
	if err := tr.write(rc.outDir, in.Name); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "livenet.") || strings.HasPrefix(m.Name, "trace.") ||
			strings.HasPrefix(m.Name, "routing.install") || strings.HasPrefix(m.Name, "routing.remove") ||
			m.Name == "routing.table_heap_mb" || m.Name == "runtime.attain_gap" {
			res.NA = append(res.NA, m.Name)
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------
// mesh_paced

// tapSink sits between the live nodes and the plan's collector: it keeps
// every delivery's latency (the collector only publishes p50/p95), checks
// that nothing is counted valid past its bound or delivered twice, and
// notes when each traced publication first reached a subscriber.
type tapSink struct {
	runtime.Sink
	mu        sync.Mutex
	latMs     []float64
	allowed   map[vtime.Millis]vtime.Millis // publication instant → bound (PSD)
	seen      map[tapPair]struct{}
	twice     int64
	validLate int64
	firstRcv  map[vtime.Millis]int64 // traced publications: first delivery, ns
}

type tapPair struct {
	published vtime.Millis
	sub       int32
}

func (t *tapSink) DeliveredAt(subID int32, price float64, published, latency vtime.Millis, valid bool) {
	now := nowNs()
	t.mu.Lock()
	t.latMs = append(t.latMs, latency)
	k := tapPair{published, subID}
	if _, dup := t.seen[k]; dup {
		t.twice++
	}
	t.seen[k] = struct{}{}
	if a, ok := t.allowed[published]; ok && valid && latency > a {
		t.validLate++
	}
	if at, ok := t.firstRcv[published]; ok && at == 0 {
		t.firstRcv[published] = now
	}
	t.mu.Unlock()
	t.Sink.DeliveredAt(subID, price, published, latency, valid)
}

// meshSetups is how often mesh_paced sets up (≈ 20 ms each): the
// repetitions behind setup_s.
const meshSetups = 25

// meshDep is one deployed mesh: what livenet.Transport.Deploy builds,
// assembled here from the same public pieces so the tap and the clock
// are the benchmark's own.
type meshDep struct {
	plan  *runtime.Plan
	c     *livenet.Cluster
	clock *runtime.WallClock
	tap   *tapSink
	pubs  []*livenet.Publisher

	planDur, startDur time.Duration
}

func deployMesh(cfg runtime.Config) (*meshDep, error) {
	d := &meshDep{}
	collect() // every set-up starts from a collected heap
	t0 := time.Now()
	p, err := runtime.NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	d.plan, d.planDur = p, time.Since(t0)
	d.clock = runtime.NewWallClock(cfg.TimeScale)
	d.tap = &tapSink{Sink: runtime.Locked(p.Metrics)}
	t1 := time.Now()
	d.c, err = livenet.StartCluster(livenet.ClusterConfig{
		Plan: p, TimeScale: cfg.TimeScale, Clock: d.clock, Sink: d.tap, Shards: cfg.LiveShards,
	})
	if err != nil {
		return nil, err
	}
	for i, ingress := range p.Overlay.Ingress {
		pub, err := livenet.DialPublisher(d.c.Addr(ingress), msg.NodeID(i))
		if err != nil {
			d.stop()
			return nil, err
		}
		pub.Clock = d.clock
		d.pubs = append(d.pubs, pub)
	}
	d.startDur = time.Since(t1)
	return d, nil
}

func (d *meshDep) stop() {
	for _, p := range d.pubs {
		p.Close()
	}
	d.c.Stop()
}

// meshRun is one paced run of a deployed mesh.
type meshRun struct {
	res          metrics.Result
	wall, cpu    time.Duration
	mallocs      uint64
	account      time.Duration
	drain        time.Duration
	latUs        []float64 // publish→deliver, wall µs, ascending
	lateUs       []float64 // injection lateness, ascending
	callNs       []float64
	peak         int
	stats        livenet.Stats
	spans        []pubSpan
	pubErrs      int64
	twice, vlate int64
}

// carry paces the plan's publications out in compressed wall time (as
// livenet's own Inject does: sleep to each due instant, send through the
// publication's ingress client) and waits for quiescence.
func (d *meshDep) carry(traced bool) (meshRun, error) {
	var r meshRun
	p, ts := d.plan, d.plan.Cfg.TimeScale
	ta := time.Now()
	p.AccountPublications()
	r.account = time.Since(ta)
	order := append([]*msg.Message(nil), p.Pubs...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Published < order[j].Published })
	targets := p.Metrics.Result().TotalTargets
	d.tap.latMs = make([]float64, 0, targets)
	d.tap.seen = make(map[tapPair]struct{}, targets)
	d.tap.allowed = make(map[vtime.Millis]vtime.Millis, len(order))
	d.tap.firstRcv = map[vtime.Millis]int64{}
	const meshSample = 8
	for i, m := range order {
		d.tap.allowed[m.Published] = m.Allowed
		if traced && i%meshSample == 0 {
			d.tap.firstRcv[m.Published] = 0
		}
	}
	late := make([]float64, 0, len(order))
	call := make([]float64, 0, len(order))

	cpu0, mal0 := cpuTime(), mallocs()
	t0 := time.Now()
	d.clock.Restart()
	anchor := nowNs()
	for i, m := range order {
		due := anchor + int64(m.Published*ts*float64(time.Millisecond))
		now := nowNs()
		if wait := due - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			now = nowNs()
		}
		if err := d.pubs[m.Publisher].Send(m); err != nil {
			r.pubErrs++
		}
		ret := nowNs()
		late = append(late, float64(now-due)/1e3)
		call = append(call, float64(ret-now))
		if traced && i%meshSample == 0 {
			r.spans = append(r.spans, pubSpan{seq: uint64(m.ID), due: due, start: now, ret: ret})
		}
	}
	td := time.Now()
	window := vtime.ToDuration((p.Cfg.Workload.PSDDelayHi + vtime.Minute) * ts)
	deadline := time.Now().Add(window + 10*time.Second)
	for idle := 0; idle < 2; {
		if time.Now().After(deadline) {
			return r, fmt.Errorf("mesh_paced: drain timed out:\n%s", d.c.LoadReport())
		}
		if d.c.Quiescent(len(order) - int(r.pubErrs)) {
			idle++
		} else {
			idle = 0
		}
		time.Sleep(time.Millisecond)
	}
	r.drain = time.Since(td)
	r.wall = time.Since(t0)
	r.cpu, r.mallocs = cpuTime()-cpu0, mallocs()-mal0

	r.res = p.Metrics.Result()
	r.peak = d.c.PeakQueue()
	r.stats = d.c.TotalStats()
	d.tap.mu.Lock()
	r.latUs = make([]float64, len(d.tap.latMs))
	for i, l := range d.tap.latMs {
		r.latUs[i] = l * ts * 1000
	}
	r.twice, r.vlate = d.tap.twice, d.tap.validLate
	for k := range r.spans {
		r.spans[k].rcv = d.tap.firstRcv[order[k*meshSample].Published]
	}
	d.tap.mu.Unlock()
	sort.Float64s(r.latUs)
	sort.Float64s(late)
	sort.Float64s(call)
	r.lateUs, r.callNs = late, call
	return r, nil
}

func (r *meshRun) check(res *wlResult) {
	ledgerCheck(res, "mesh_paced", r.res)
	res.fail(r.pubErrs, "publish errors")
	res.fail(r.twice, "(publication, subscriber) pairs delivered twice")
	res.fail(r.vlate, "deliveries counted valid past their bound")
}

func meshConfig(w *paperWorld, in *planInputs) (runtime.Config, error) {
	cfg, err := w.config(in.Cells[0])
	cfg.TimeScale = in.TimeScale
	cfg.LiveShards = shardCount()
	return cfg, err
}

func runMeshPaced(rc runCfg) (*wlResult, error) {
	seconds := rc.seconds
	if rc.trace {
		seconds *= 0.35 // two shortened live runs fit the traced budget
	}
	in := meshPacedInputs(rc.seed, seconds)
	w, err := newPaperWorld(in)
	if err != nil {
		return nil, err
	}
	cfg, err := meshConfig(w, in)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return traceMeshPaced(cfg, rc)
	}
	res := &wlResult{Name: in.Name, Metrics: map[string]sample{}}
	repeats := meshSetups
	if rc.smoke {
		repeats = 1
	}
	var d *meshDep
	var setups []float64
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.stop()
		}
		rc.nextCPU()
		if d, err = deployMesh(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, (d.planDur + d.startDur).Seconds())
	}
	defer d.stop()
	heap := heapMB()
	r, err := d.carry(false)
	if err != nil {
		return nil, err
	}
	r.check(res)
	pubs := float64(r.res.Published)
	res.put("setup_s", fastest(setups), setups...)
	res.one("p50_us", percentile(r.latUs, 0.50))
	res.one("p99_us", percentile(r.latUs, 0.99))
	res.one("msgs_per_s", pubs/r.wall.Seconds())
	res.one("allocs_per_msg", float64(r.mallocs)/pubs)
	res.one("attain_frac", r.res.DeliveryRate())
	res.one("state_heap_mb", heap)
	return res, nil
}

func traceMeshPaced(cfg runtime.Config, rc runCfg) (*wlResult, error) {
	res := newTraceResult("mesh_paced")
	var runs [2]meshRun
	var dep *meshDep
	for i := range runs {
		d, err := deployMesh(cfg)
		if err != nil {
			return nil, err
		}
		runs[i], err = d.carry(i == 1)
		d.stop()
		if err != nil {
			return nil, err
		}
		runs[i].check(res)
		dep = d
	}
	plain, traced := runs[0], runs[1]

	// The same config on the simulator: what the paper's delay model says
	// this run should have delivered.
	var tr tracer
	sim, err := runSimCell(cfg, false, true, &tr, 0, nil)
	if err != nil {
		return nil, err
	}
	ledgerCheck(res, "mesh_paced/sim", sim.res)

	set := res.one
	kit, err := planKit(sim.plan0, traced.peak)
	if err != nil {
		return nil, err
	}
	layers, hops, err := replayLayers(kit)
	if err != nil {
		return nil, err
	}
	for name, v := range layers {
		set(name, v)
	}
	pubs, targets := float64(traced.res.Published), float64(traced.res.TotalTargets)
	live := (plain.res.DeliveryRate() + traced.res.DeliveryRate()) / 2
	set("core.drops_expired_frac", float64(traced.res.DropsExpired)/targets)
	set("core.drops_hopeless_frac", float64(traced.res.DropsHopeless)/targets)
	set("core.drops_arrival_frac", float64(traced.res.DropsArrival)/targets)
	set("core.peak_queue", float64(traced.peak))
	set("livenet.publish_call_ns", median(traced.callNs))
	set("livenet.receptions_per_msg", float64(traced.stats.Receptions)/pubs)
	set("livenet.deliveries_per_msg", float64(traced.stats.Deliveries)/pubs)
	set("livenet.drain_ms", float64(traced.drain)/1e6)
	set("livenet.cluster_start_ms", float64(dep.startDur)/1e6)
	set("livenet.gen_late_p99_us", percentile(traced.lateUs, 0.99))
	set("runtime.plan_ms", float64(dep.planDur)/1e6)
	set("runtime.account_pubs_ms", float64(traced.account)/1e6)
	set("runtime.sim_attain_frac", sim.res.DeliveryRate())
	set("runtime.attain_gap", sim.res.DeliveryRate()-live)
	set("simnet.cell_ms_p50", float64(sim.wall)/1e6)
	set("simnet.cell_allocs", float64(sim.mallocs))
	set("simnet.receptions_per_s", float64(sim.res.Receptions)/sim.wall.Seconds())
	perMsg := func(r *meshRun) float64 { return float64(r.cpu.Microseconds()) / float64(r.res.Published) }
	set("cpu_us_per_msg", perMsg(&plain))
	set("trace_overhead_frac", (perMsg(&traced)-perMsg(&plain))/perMsg(&plain))

	var hopNs float64
	for _, h := range hops {
		hopNs += h.total()
	}
	e2e, wait, call := percentile(traced.latUs, 0.50), median(traced.lateUs), median(traced.callNs)/1e3
	set("trace.e2e_p50_us", e2e)
	set("trace.gen_wait_us", wait)
	set("trace.hop_replay_us", hopNs/1e3)
	// Here what no layer call explains is mostly the emulated link pacing
	// and the queue wait it causes — the delay the paper budgets.
	set("livenet.unaccounted_us", e2e-wait-call-hopNs/1e3)
	for _, p := range traced.spans {
		tr.publication(p, hops)
	}
	if err := tr.write(rc.outDir, "mesh_paced"); err != nil {
		return nil, err
	}
	res.NA = []string{"routing.install_us", "routing.remove_us", "routing.table_heap_mb",
		"livenet.hop_p50_us", "livenet.open_p50_us", "livenet.open_p99_us", "livenet.open_attain_frac",
		"livenet.closed_cpu_us_per_msg", "livenet.closed_p50_us", "livenet.p99_hi_us",
		"livenet.loss_hi_frac", "livenet.sub_client_drops", "livenet.flood_us_per_sub"}
	return res, nil
}
