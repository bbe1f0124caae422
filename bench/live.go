package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/vtime"
)

// The load generator of the pacing-off live workloads: one publisher
// goroutine on one livenet.Publisher connection, one receiver goroutine
// on one attached livenet.Subscriber connection — never more generator
// goroutines or connections than the box has cores (2). Brokers, links
// and clients all live in this process; every frame crosses host
// loopback TCP.

const (
	payloadHdr   = 16         // [seq u64][due ns i64]
	probeSeq     = ^uint64(0) // set-up probe, not a publication
	liveBound    = 60 * vtime.Second
	pacingOff    = 1e-9    // TimeScale: emulated sleeps round to 0
	sampleEvery  = 64      // traced publications: 1 in 64
	maxClosedPPS = 400_000 // sizes the closed-loop sample arrays
	segDrain     = 2 * time.Second
	// openTick is the open-loop schedule's grain: the publications due
	// within one tick go out together at its start and are timed from it.
	openTick = time.Millisecond
)

// segRecv is the receiver's view of one measured segment. The receiver
// goroutine owns the slices while the segment is current; the main
// goroutine reads them after observing `received` (atomic), which
// orders the accesses.
type segRecv struct {
	base     uint64
	recvAt   []int64 // ns since epoch, by seq-base; 0 = not received
	dueAt    []int64 // from the payload
	received atomic.Int64
	dups     atomic.Int64
	// credits gets one token per delivery, never blocking: the closed
	// loop's window, and what wakes the open loop's sender (capacity 1).
	credits chan struct{}
	lastAt  int64 // receiver-owned: previous delivery
	maxGap  int64 // longest silence between two deliveries, ns
}

func newSegRecv(base uint64, n int) *segRecv {
	return &segRecv{base: base, recvAt: make([]int64, n), dueAt: make([]int64, n)}
}

type receiver struct {
	cur    atomic.Pointer[segRecv]
	probes atomic.Int64
	stray  atomic.Int64 // deliveries outside the current segment
	done   chan struct{}
}

func (r *receiver) loop(ch <-chan *msg.Message) {
	defer close(r.done)
	for m := range ch {
		now := nowNs()
		if len(m.Payload) < payloadHdr {
			r.stray.Add(1)
			continue
		}
		seq := binary.LittleEndian.Uint64(m.Payload)
		if seq == probeSeq {
			r.probes.Add(1)
			continue
		}
		s := r.cur.Load()
		if s == nil || seq < s.base || seq-s.base >= uint64(len(s.recvAt)) {
			r.stray.Add(1)
			continue
		}
		i := seq - s.base
		if s.recvAt[i] != 0 {
			s.dups.Add(1)
			continue
		}
		if s.lastAt != 0 && now-s.lastAt > s.maxGap {
			s.maxGap = now - s.lastAt
		}
		s.lastAt = now
		s.recvAt[i] = now
		s.dueAt[i] = int64(binary.LittleEndian.Uint64(m.Payload[8:]))
		s.received.Add(1)
		select {
		case s.credits <- struct{}{}:
		default:
		}
	}
}

// liveCluster is one started cluster with its two clients attached.
type liveCluster struct {
	in    *liveInputs
	short bool
	c     *livenet.Cluster
	pub   *livenet.Publisher
	sub   *livenet.Subscriber
	rcv   *receiver
	churn *churner // nil while no churn runs

	ingress, edge msg.NodeID
	attrs         []msg.AttrSet // built from in.Pool
	payload       []byte

	seq      uint64 // next publication sequence number
	injected int    // every Publish call, probes included (Quiescent's target)
	expected int64  // Σ content deliveries the publications so far must cause

	startDur   time.Duration // StartCluster
	installDur time.Duration // population installs (Node.Subscribe calls)
	settleDur  time.Duration // last install → flood visible at the ingress
	tableHeap  float64       // heap delta across the installs, MB
	heap       float64       // live heap after set-up, MB
	base       livenet.Stats // counters after set-up (probes excluded from deltas)
}

func (in *liveInputs) clusterConfig(short bool) (livenet.ClusterConfig, error) {
	ov, err := in.overlay(short)
	if err != nil {
		return livenet.ClusterConfig{}, err
	}
	return livenet.ClusterConfig{
		Overlay: ov, Scenario: msg.PSD, Strategy: core.MaxEB{},
		TimeScale: pacingOff, Seed: 1, Shards: shardCount(),
	}, nil
}

// startLive sets one cluster up: start brokers, install the content
// population at the edges, attach the receiving client, and wait until
// a probe published at the ingress comes back — the subscription floods
// share the per-link TCP streams with the probe's subscriptions, in
// order, so its arrival proves every earlier flood has landed.
func startLive(in *liveInputs, short bool) (*liveCluster, error) {
	cfg, err := in.clusterConfig(short)
	if err != nil {
		return nil, err
	}
	lc := &liveCluster{in: in, short: short, ingress: msg.NodeID(in.Ingress), edge: msg.NodeID(in.Attached)}
	if short {
		lc.edge = msg.NodeID(in.ShortAttached)
	}
	collect() // every set-up starts from a collected heap
	t0 := time.Now()
	if lc.c, err = livenet.StartCluster(cfg); err != nil {
		return nil, err
	}
	lc.startDur = time.Since(t0)
	heap0 := heapMB() // outside every timed stretch
	fail := func(err error) (*liveCluster, error) {
		lc.stop()
		return nil, err
	}

	subs := in.subsFor(short)
	built := make([]*msg.Subscription, len(subs))
	for i, s := range subs {
		built[i] = s.build()
	}
	t1 := time.Now()
	for _, s := range built {
		lc.c.Nodes[s.Edge].Subscribe(s)
	}
	lc.installDur = time.Since(t1)
	// A sentinel behind the population on every other edge: it matches
	// probes only, so a probe delivery there proves that edge's floods
	// reached the ingress too.
	var sentinels []msg.NodeID
	for _, e := range cfg.Overlay.Edges {
		if e != lc.edge {
			lc.c.Nodes[e].Subscribe(&msg.Subscription{ID: msg.SubID(50 + e), Edge: e, Filter: filter.Gt("PROBE", 0)})
			sentinels = append(sentinels, e)
		}
	}
	t2 := time.Now()
	lc.sub, err = livenet.DialSubscriber(lc.c.Addr(lc.edge),
		&msg.Subscription{ID: 1, Edge: lc.edge, Filter: &filter.Filter{}})
	if err != nil {
		return fail(err)
	}
	lc.rcv = &receiver{done: make(chan struct{})}
	go lc.rcv.loop(lc.sub.C())
	if lc.pub, err = livenet.DialPublisher(lc.c.Addr(lc.ingress), 0); err != nil {
		return fail(err)
	}

	lc.payload = make([]byte, max(in.PayloadBytes, payloadHdr))
	probe := msg.NumAttrs(map[string]float64{"PROBE": 1})
	binary.LittleEndian.PutUint64(lc.payload, probeSeq)
	deadline := time.Now().Add(10 * time.Second)
	settled := func() bool {
		if lc.rcv.probes.Load() == 0 {
			return false
		}
		for _, e := range sentinels {
			if lc.c.Nodes[e].Stats().Deliveries == 0 {
				return false
			}
		}
		return true
	}
	for !settled() {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("%s: subscription flood did not settle:\n%s", in.Name, lc.c.LoadReport()))
		}
		if _, err := lc.pub.Publish(lc.ingress, probe, 1, liveBound, lc.payload[:payloadHdr]); err != nil {
			return fail(err)
		}
		lc.injected++
		time.Sleep(time.Millisecond)
	}
	lc.settleDur = time.Since(t2)
	if err := lc.quiesce(5 * time.Second); err != nil {
		return fail(err)
	}

	lc.attrs = make([]msg.AttrSet, len(in.Pool))
	for i, p := range in.Pool {
		lc.attrs[i] = msg.NumAttrs(map[string]float64{"A1": p.A1, "A2": p.A2})
	}
	lc.heap = heapMB()
	lc.tableHeap = lc.heap - heap0
	lc.base = lc.c.TotalStats()
	return lc, nil
}

// setupDur is what setup_s reports: everything between "no cluster" and
// "ready to carry the first publication".
func (lc *liveCluster) setupDur() time.Duration {
	return lc.startDur + lc.installDur + lc.settleDur
}

func (lc *liveCluster) stop() {
	if lc.pub != nil {
		lc.pub.Close()
	}
	if lc.sub != nil {
		lc.sub.Close()
		<-lc.rcv.done
	}
	lc.c.Stop()
}

// quiesce waits until the cluster has provably gone idle after every
// frame injected so far (twice in a row closes the socket-buffer window).
func (lc *liveCluster) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for idle := 0; idle < 2; {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: cluster did not quiesce:\n%s", lc.in.Name, lc.c.LoadReport())
		}
		if lc.c.Quiescent(lc.injected) {
			idle++
		} else {
			idle = 0
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// segment is one measured stretch of load.
type segment struct {
	n        int           // publications attempted
	wall     time.Duration // first due → last delivery (or drain timeout)
	cpu      time.Duration
	mallocs  uint64
	latUs    []float64 // receive − due, ascending, received publications only
	lateUs   []float64 // generator lateness (send start − due), ascending
	callNs   []float64 // Publisher.Publish duration, ascending
	missing  int       // published, never received by the attached client
	dups     int
	pubErrs  int
	expected int64 // content deliveries the segment's publications must cause
	stress   bool  // above the reference rate: client-side loss is the measured outcome
	// invalid names why the segment measured the generator instead of the
	// system ("" = valid): the sender ran late or the receiver stalled.
	invalid string
	maxGap  time.Duration // longest silence at the receiver
	spans   []pubSpan
	// Closed loop only: the sender's marks, one per slice of wall time,
	// and every publication's latency in send order (< 0: never received).
	// Together they cut the segment into windows.
	marks   []mark
	byOrder []float64
}

// mark is the sender's position at a slice boundary.
type mark struct {
	n  int   // publications sent so far
	at int64 // ns since epoch
}

// window is one slice of a closed-loop segment: the publications sent in
// it, their latencies (ascending, received ones only) and its wall time.
// A slice is short enough — ten to twenty-five milliseconds — to fit
// between two bursts of whoever shares this box's cores.
type window struct {
	latUs []float64
	wall  time.Duration
}

func (w *window) p(q float64) float64 { return percentile(w.latUs, q) }
func (w *window) rate() float64       { return float64(len(w.latUs)) / w.wall.Seconds() }

// mean is what the one-at-a-time windows are ranked by: unlike the
// median it also rises when a single round trip in the window stalled.
func (w *window) mean() float64 {
	if len(w.latUs) == 0 {
		return math.Inf(1) // everything sent in it was lost: the least calm of all
	}
	var sum float64
	for _, l := range w.latUs {
		sum += l
	}
	return sum / float64(len(w.latUs))
}

// windows cuts a closed-loop segment at its marks. The stretch after the
// last mark is shorter than a slice and is left out.
func (s *segment) windows() []window {
	var out []window
	for k := 1; k < len(s.marks); k++ {
		a, b := s.marks[k-1], s.marks[k]
		if b.n == a.n {
			continue
		}
		w := window{wall: time.Duration(b.at - a.at)}
		for _, l := range s.byOrder[a.n:b.n] {
			if l >= 0 {
				w.latUs = append(w.latUs, l)
			}
		}
		sort.Float64s(w.latUs)
		out = append(out, w)
	}
	return out
}

// pubSpan is the raw record behind one traced publication's spans.
type pubSpan struct {
	seq                  uint64
	due, start, ret, rcv int64
}

func (s *segment) p(q float64) float64 { return percentile(s.latUs, q) }
func (s *segment) within(limitMs float64) float64 {
	if s.n == 0 {
		return 0
	}
	ok := sort.SearchFloat64s(s.latUs, limitMs*1000+1e-9)
	return float64(ok) / float64(s.n)
}

// sleepNs blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's netpoll timer, which wakes on
// millisecond boundaries at an arbitrary phase and so puts up to a
// millisecond of generator wait into every latency. The syscall sleeps
// to the due time within tens of microseconds, still without spinning.
func sleepNs(d int64) {
	ts := syscall.NsecToTimespec(d)
	_ = syscall.Nanosleep(&ts, nil) // an early EINTR wake just publishes a little early
}

// publish sends publication seq with its due time in the payload.
func (lc *liveCluster) publish(seq uint64, due int64) error {
	binary.LittleEndian.PutUint64(lc.payload, seq)
	binary.LittleEndian.PutUint64(lc.payload[8:], uint64(due))
	if lc.churn != nil && seq%uint64(lc.in.ChurnEvery) == 0 {
		select {
		case lc.churn.kick <- struct{}{}:
		default:
		}
	}
	k := seq % uint64(len(lc.attrs))
	_, err := lc.pub.Publish(lc.ingress, lc.attrs[k], float64(len(lc.payload))/1024, liveBound, lc.payload)
	lc.injected++
	lc.expected += int64(lc.in.Pool[k].Expected)
	return err
}

// openLoop publishes rate×dur publications on a fixed schedule with a
// grain of openTick, sleeping (never spinning) to each tick. Latency is
// counted from the tick's due time, so a generator stall is charged to
// the publications it delayed. traced records raw span data for 1
// publication in 64.
func (lc *liveCluster) openLoop(rate float64, dur time.Duration, traced bool) segment {
	n := int(rate * dur.Seconds())
	sr := newSegRecv(lc.seq, n)
	sr.credits = make(chan struct{}, 1)
	lc.rcv.cur.Store(sr)
	seg := segment{n: n}
	wake := time.NewTimer(time.Hour)
	defer wake.Stop()
	late := make([]float64, n)
	call := make([]float64, n)
	if traced {
		seg.spans = make([]pubSpan, 0, n/sampleEvery+1)
	}
	exp0 := lc.expected
	cpu0, mal0 := cpuTime(), mallocs()
	t0 := nowNs()
	perTick := rate * openTick.Seconds()
	for i, k := 0, 0; i < n; k++ {
		// Publications due in tick k: those whose even-schedule instant
		// falls inside it.
		m := min(int(float64(k+1)*perTick)-int(float64(k)*perTick), n-i)
		if m == 0 {
			continue
		}
		due := t0 + int64(k)*int64(openTick)
		// On one P a goroutine asleep in a syscall keeps the P until sysmon
		// takes it away, 20 µs to 10 ms later, and nothing else runs
		// meanwhile. So the sender parks (which frees the P) until the
		// receiver has seen everything sent so far or the tick is due, and
		// only then sleeps the rest of the way in nanosleep.
		for sr.received.Load() < int64(i) && nowNs() < due {
			wake.Reset(time.Duration(due - nowNs()))
			select {
			case <-sr.credits:
			case <-wake.C:
			}
		}
		if d := due - nowNs(); d > 0 {
			sleepNs(d)
		}
		for ; m > 0; m, i = m-1, i+1 {
			now := nowNs()
			if err := lc.publish(lc.seq, due); err != nil {
				seg.pubErrs++
			}
			ret := nowNs()
			late[i] = float64(now-due) / 1e3
			call[i] = float64(ret - now)
			if traced && i%sampleEvery == 0 {
				seg.spans = append(seg.spans, pubSpan{seq: lc.seq, due: due, start: now, ret: ret})
			}
			lc.seq++
		}
	}
	lc.finish(&seg, sr, t0)
	seg.cpu, seg.mallocs = cpuTime()-cpu0, mallocs()-mal0
	seg.expected = lc.expected - exp0
	sort.Float64s(late)
	sort.Float64s(call)
	seg.lateUs, seg.callNs = late, call
	lc.in.judgeHealth(&seg, rate)
	return seg
}

// closedLoop keeps `window` publications outstanding for dur: the next
// one goes out when a delivery returns a credit. At window 1 the latency
// (receive − send start) is one publication's way through the idle
// system; at the workload's window, completions per second is the
// flow-controlled capacity. Nothing sleeps, so no timer and no wake-up
// from idle is in either number.
func (lc *liveCluster) closedLoop(window int, dur, slice time.Duration) segment {
	capN := int(min(maxClosedPPS, 100_000*float64(window)) * dur.Seconds())
	sr := newSegRecv(lc.seq, capN)
	sr.credits = make(chan struct{}, window)
	for i := 0; i < window; i++ {
		sr.credits <- struct{}{}
	}
	lc.rcv.cur.Store(sr)
	seg := segment{marks: make([]mark, 0, int(dur/slice)+2)}
	exp0 := lc.expected
	cpu0, mal0 := cpuTime(), mallocs()
	t0 := nowNs()
	seg.marks = append(seg.marks, mark{0, t0})
	nextMark := t0 + int64(slice)
	stop := time.NewTimer(dur)
	defer stop.Stop()
loop:
	for seg.n < capN {
		select {
		case <-sr.credits:
		case <-stop.C:
			break loop
		}
		now := nowNs()
		if now >= nextMark {
			seg.marks = append(seg.marks, mark{seg.n, now})
			nextMark = now + int64(slice) // from now: after a stall, no run of catch-up marks

		}
		if err := lc.publish(lc.seq, now); err != nil {
			seg.pubErrs++
		}
		lc.seq++
		seg.n++
	}
	// A system too slow to reach a second mark still gets one window, the
	// whole segment. (Otherwise the tail is left out: windows of unequal
	// length do not rank fairly, the short ones scatter more.)
	if len(seg.marks) == 1 {
		seg.marks = append(seg.marks, mark{seg.n, nowNs()})
	}
	lc.finish(&seg, sr, t0)
	seg.cpu, seg.mallocs = cpuTime()-cpu0, mallocs()-mal0
	seg.expected = lc.expected - exp0
	return seg
}

// finish waits for the segment's deliveries (a publication still missing
// after segDrain counts as lost) and folds the receiver's record in.
func (lc *liveCluster) finish(seg *segment, sr *segRecv, t0 int64) {
	deadline := time.Now().Add(segDrain)
	for sr.received.Load() < int64(seg.n) && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	got := int(sr.received.Load()) // orders the receiver's writes before the reads below
	seg.dups = int(sr.dups.Load())
	seg.missing = seg.n - got
	seg.maxGap = time.Duration(sr.maxGap)
	seg.latUs = make([]float64, 0, got)
	if seg.marks != nil {
		seg.byOrder = make([]float64, seg.n)
	}
	last := t0
	for i := 0; i < seg.n; i++ {
		at := sr.recvAt[i]
		if at == 0 {
			if seg.byOrder != nil {
				seg.byOrder[i] = -1
			}
			continue
		}
		l := float64(at-sr.dueAt[i]) / 1e3
		seg.latUs = append(seg.latUs, l)
		if seg.byOrder != nil {
			seg.byOrder[i] = l
		}
		if at > last {
			last = at
		}
	}
	for k := range seg.spans {
		seg.spans[k].rcv = sr.recvAt[seg.spans[k].seq-sr.base]
	}
	seg.wall = time.Duration(last - t0)
	sort.Float64s(seg.latUs)
}

// churner issues pre-built Subscribe+Unsubscribe pairs at one edge, one
// pair per ChurnEvery publications: direct calls, no connection. It is
// paced by the sender's count, not by a clock, so that every publication
// carries the same share of table writes however fast the loop turns.
type churner struct {
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func (lc *liveCluster) startChurn() {
	if lc.in.ChurnEvery <= 0 {
		return
	}
	// kick holds the pairs owed while the churn goroutine waits its turn.
	ch := &churner{kick: make(chan struct{}, 64), stop: make(chan struct{}), done: make(chan struct{})}
	// The churn edge is the one the client is not attached to.
	edges := lc.in.Edges
	if lc.short {
		edges = lc.in.ShortEdges
	}
	edge := lc.edge
	for _, e := range edges {
		if msg.NodeID(e) != lc.edge {
			edge = msg.NodeID(e)
		}
	}
	node := lc.c.Nodes[edge]
	built := make([]*msg.Subscription, len(lc.in.Churn))
	for i, s := range lc.in.Churn {
		s.Edge = int32(edge)
		built[i] = s.build()
	}
	lc.churn = ch
	go func() {
		defer close(ch.done)
		for i := 0; ; i++ {
			select {
			case <-ch.stop:
				return
			case <-ch.kick:
			}
			s := built[i%len(built)] // removed again before its turn comes round
			node.Subscribe(s)
			node.Unsubscribe(s.ID)
		}
	}()
}

func (lc *liveCluster) stopChurn() {
	if ch := lc.churn; ch != nil {
		lc.churn = nil
		close(ch.stop)
		<-ch.done
	}
}
