package core

// Equivalence suite for ISSUE 1: the cached fast paths (cache.go,
// core.go, queue.go) must return bit-identical values — and therefore
// make byte-identical scheduling decisions — to the retained naive
// reference implementations (reference_test.go), across randomized workloads
// spanning the saturated, transition, expired and σ=0 regimes.

import (
	"math"
	"math/rand"
	"testing"

	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// randTarget draws a target covering every regime the fast paths
// special-case: point-mass rates (σ=0), zero hops, deadlines from
// already-expired to deeply saturated.
func randTarget(r *rand.Rand) Target {
	sigma := 5 + 35*r.Float64()
	if r.Intn(8) == 0 {
		sigma = 0
	}
	return Target{
		SubID:    int32(r.Intn(200)),
		Deadline: vtime.Millis(r.Float64() * 120 * vtime.Second),
		Price:    []float64{1, 1, 2, 3}[r.Intn(4)],
		Hops:     r.Intn(4),
		Rate:     stats.Normal{Mean: 20 + 230*r.Float64(), Sigma: sigma},
	}
}

func randEntry(r *rand.Rand, id uint64) *Entry {
	e := &Entry{
		MsgID:  id,
		SizeKB: []float64{0, 0.5, 10, 50, 100}[r.Intn(5)],
	}
	for i, n := 0, r.Intn(5); i < n; i++ {
		e.Targets = append(e.Targets, randTarget(r))
	}
	return e
}

// randNow mixes uniform instants with instants placed right around a
// target's deadline and saturation boundary (for the given processing
// delay), where the fast paths switch regimes.
func randNow(r *rand.Rand, e *Entry, pd vtime.Millis) vtime.Millis {
	if len(e.Targets) > 0 && r.Intn(2) == 0 {
		t := e.Targets[r.Intn(len(e.Targets))]
		edge := t.Deadline
		if r.Intn(2) == 0 {
			size := e.SizeKB
			if size < minSizeKB {
				size = minSizeKB
			}
			edge = t.Deadline - float64(t.Hops)*pd -
				size*(t.Rate.Mean+stats.SureSigmas*t.Rate.Sigma)
		}
		return edge + vtime.Millis(r.NormFloat64()*100)
	}
	return vtime.Millis(r.Float64() * 130 * vtime.Second)
}

// randPD draws a processing delay, mostly the paper's 2 ms but often
// enough something else that the cache's pd-staleness rebuild runs.
func randPD(r *rand.Rand) vtime.Millis {
	return []vtime.Millis{0, 1, 2, 2, 5}[r.Intn(5)]
}

func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestMetricEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		e := randEntry(r, uint64(trial))
		pd := randPD(r)
		ctx := Context{
			Now: randNow(r, e, pd),
			PD:  pd,
			FT:  vtime.Millis(r.Float64() * 8000),
		}
		check := func(when string) {
			t.Helper()
			if got, want := EB(e, ctx), RefEB(e, ctx); !bitsEq(got, want) {
				t.Fatalf("trial %d (%s): EB = %v, ref %v", trial, when, got, want)
			}
			if got, want := EBDelayed(e, ctx), RefEBDelayed(e, ctx); !bitsEq(got, want) {
				t.Fatalf("trial %d (%s): EBDelayed = %v, ref %v", trial, when, got, want)
			}
			if got, want := PC(e, ctx), RefPC(e, ctx); !bitsEq(got, want) {
				t.Fatalf("trial %d (%s): PC = %v, ref %v", trial, when, got, want)
			}
			for _, w := range []float64{0, 0.3, 0.5, 1} {
				if got, want := EBPC(e, ctx, w), RefEBPC(e, ctx, w); !bitsEq(got, want) {
					t.Fatalf("trial %d (%s): EBPC(%v) = %v, ref %v", trial, when, w, got, want)
				}
			}
			for _, eps := range []float64{0, DefaultEpsilon, 0.3, 1} {
				p := Params{PD: ctx.PD, Epsilon: eps}
				want := eps > 0 && RefMaxSuccess(e, ctx.Now, ctx.PD) < eps
				if got := Hopeless(e, ctx.Now, p); got != want {
					t.Fatalf("trial %d (%s): Hopeless(ε=%v) = %v, ref %v", trial, when, eps, got, want)
				}
			}
			if got, want := AllExpired(e, ctx.Now), RefAllExpired(e, ctx.Now); got != want {
				t.Fatalf("trial %d (%s): AllExpired = %v, ref %v", trial, when, got, want)
			}
			p := Params{PD: ctx.PD, Epsilon: DefaultEpsilon}
			if got, want := Viable(e, ctx.Now, p), RefViable(e, ctx.Now, p); got != want {
				t.Fatalf("trial %d (%s): Viable = %v, ref %v", trial, when, got, want)
			}
		}
		check("cold cache")
		check("memo hit")
		// A different FT must not be served from the stale EB′ memo.
		ctx.FT = vtime.Millis(r.Float64() * 8000)
		check("new FT")
		// A different PD must rebuild the invariants, not reuse them.
		ctx.PD = ctx.PD + 1
		check("new PD")
		ctx.PD = pd
		check("back to old PD")
		// Mutation + a cleared cache (what Release leaves) must fully
		// refresh the invariants.
		if len(e.Targets) > 0 {
			e.Targets[r.Intn(len(e.Targets))].Deadline = vtime.Millis(r.Float64() * 120 * vtime.Second)
			e.cache.ready = false
			check("after mutation")
		}
	}
}

func TestPickEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	strategies := []Strategy{
		FIFO{}, RL{}, MaxEB{}, MaxPC{},
		MaxEBPC{R: 0}, MaxEBPC{R: 0.25}, MaxEBPC{R: 0.5}, MaxEBPC{R: 1},
	}
	for trial := 0; trial < 800; trial++ {
		n := 1 + r.Intn(40)
		entries := make([]*Entry, n)
		for i := range entries {
			entries[i] = randEntry(r, uint64(i))
			entries[i].Seq = uint64(i)
		}
		pd := randPD(r)
		ctx := Context{
			Now: randNow(r, entries[r.Intn(n)], pd),
			PD:  pd,
			FT:  vtime.Millis(r.Float64() * 8000),
		}
		for _, s := range strategies {
			got := s.Pick(entries, ctx)
			want := Reference(s).Pick(entries, ctx)
			if got != want {
				t.Fatalf("trial %d: %s.Pick = %d, reference %d", trial, s.Name(), got, want)
			}
			// The MetricStrategy accessor must expose the same cached
			// metric Pick ranks by, bit-identical to the reference.
			if ms, ok := s.(MetricStrategy); ok {
				e := entries[r.Intn(n)]
				if gotM, wantM := ms.Metric(e, ctx), refMetric(s, e, ctx); !bitsEq(gotM, wantM) {
					t.Fatalf("trial %d: %s.Metric = %v, reference %v", trial, s.Name(), gotM, wantM)
				}
			}
		}
	}
}

// refMetric is the naive counterpart of MetricStrategy.Metric.
func refMetric(s Strategy, e *Entry, ctx Context) float64 {
	switch s := s.(type) {
	case MaxEB:
		return RefEB(e, ctx)
	case MaxPC:
		return RefPC(e, ctx)
	case MaxEBPC:
		return RefEBPC(e, ctx, s.R)
	}
	panic("refMetric: not a MetricStrategy")
}

// clone deep-copies an entry without its cache, so mirrored queues share
// no state.
func clone(e *Entry) *Entry {
	c := &Entry{
		MsgID:     e.MsgID,
		SizeKB:    e.SizeKB,
		Published: e.Published,
	}
	c.Targets = append(c.Targets, e.Targets...)
	return c
}

// naivePrune is Prune recomputed with the reference metrics and the
// same swap-remove traversal, so both drop decisions and resulting
// queue order must match the optimized Prune exactly.
func naivePrune(q *Queue, now vtime.Millis, p Params) []Drop {
	var drops []Drop
	for i := 0; i < q.Len(); {
		e := q.Entries()[i]
		switch {
		case RefAllExpired(e, now):
			drops = append(drops, Drop{Entry: q.RemoveAt(i), Reason: DropExpired})
		case p.Epsilon > 0 && RefMaxSuccess(e, now, p.PD) < p.Epsilon:
			drops = append(drops, Drop{Entry: q.RemoveAt(i), Reason: DropHopeless})
		default:
			i++
		}
	}
	return drops
}

func sameDrops(t *testing.T, trial int, got, want []Drop) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: %d drops, reference %d", trial, len(got), len(want))
	}
	for i := range got {
		if got[i].Entry.MsgID != want[i].Entry.MsgID || got[i].Reason != want[i].Reason {
			t.Fatalf("trial %d: drop %d = (%d,%v), reference (%d,%v)", trial, i,
				got[i].Entry.MsgID, got[i].Reason, want[i].Entry.MsgID, want[i].Reason)
		}
	}
}

func sameOrder(t *testing.T, trial int, got, want *Queue) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("trial %d: len %d, reference %d", trial, got.Len(), want.Len())
	}
	for i := range got.Entries() {
		if got.Entries()[i].MsgID != want.Entries()[i].MsgID {
			t.Fatalf("trial %d: slot %d holds msg %d, reference %d", trial, i,
				got.Entries()[i].MsgID, want.Entries()[i].MsgID)
		}
	}
}

// TestPruneEquivalence steps mirrored queues through interleaved
// enqueues and prunes — including the tiny time steps that exercise the
// O(1) skip window — and demands identical drops and identical
// surviving order at every step.
func TestPruneEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		fast, naive := NewQueue(70), NewQueue(70)
		p := DefaultParams()
		p.PD = randPD(r)
		if r.Intn(4) == 0 {
			p.Epsilon = 0
		}
		now := vtime.Millis(0)
		nextID := uint64(0)
		for step := 0; step < 60; step++ {
			switch r.Intn(3) {
			case 0: // enqueue the same entry into both queues
				e := randEntry(r, nextID)
				nextID++
				fast.Enqueue(e, now)
				naive.Enqueue(clone(e), now)
			default: // advance (often by a little, to hit the skip) and prune
				if r.Intn(2) == 0 {
					now += vtime.Millis(r.Float64() * 50)
				} else {
					now += vtime.Millis(r.Float64() * 20 * vtime.Second)
				}
				sameDrops(t, trial, fast.Prune(now, p), naivePrune(naive, now, p))
				sameOrder(t, trial, fast, naive)
			}
		}
	}
}

// TestPopNextDrainEquivalence drains mirrored queues to empty under
// every strategy: optimized PopNext vs naive prune + reference pick.
// The popped sequence and every drop must coincide.
func TestPopNextDrainEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	strategies := []Strategy{FIFO{}, RL{}, MaxEB{}, MaxPC{}, MaxEBPC{R: 0.5}}
	for trial := 0; trial < 120; trial++ {
		s := strategies[trial%len(strategies)]
		fast, naive := NewQueue(70), NewQueue(70)
		p := DefaultParams()
		p.PD = randPD(r)
		now := vtime.Millis(0)
		for i := 0; i < 1+r.Intn(30); i++ {
			e := randEntry(r, uint64(i))
			fast.Enqueue(e, now)
			naive.Enqueue(clone(e), now)
		}
		for steps := 0; fast.Len() > 0 || naive.Len() > 0; steps++ {
			if steps > 1000 {
				t.Fatalf("trial %d: drain did not terminate", trial)
			}
			got, gotDrops := fast.PopNext(s, now, p)
			wantDrops := naivePrune(naive, now, p)
			var want *Entry
			if naive.Len() > 0 {
				if i := Reference(s).Pick(naive.Entries(), naive.Context(now, p)); i >= 0 {
					want = naive.RemoveAt(i)
				}
			}
			sameDrops(t, trial, gotDrops, wantDrops)
			switch {
			case got == nil && want == nil:
			case got == nil || want == nil:
				t.Fatalf("trial %d: pop = %v, reference %v", trial, got, want)
			case got.MsgID != want.MsgID:
				t.Fatalf("trial %d (%s): popped msg %d, reference %d", trial, s.Name(), got.MsgID, want.MsgID)
			}
			sameOrder(t, trial, fast, naive)
			now += vtime.Millis(r.Float64() * 4 * vtime.Second)
		}
	}
}

// refPopBurst is PopBurst as it stood before the burst cut existed (one
// prune, one score sweep, heap-select exactly k, swap-remove the taken
// slots in descending index order), retained verbatim as the ground
// truth PopBurstWhile must reproduce whenever its cut never trips.
func refPopBurst(q *Queue, s Strategy, now vtime.Millis, p Params, k int, out []*Entry) ([]*Entry, []Drop) {
	drops := q.Prune(now, p)
	if len(q.entries) == 0 || k <= 0 {
		return out, drops
	}
	ctx := q.Context(now, p)
	var score func(e *Entry) float64
	switch s := s.(type) {
	case MetricStrategy:
		score = func(e *Entry) float64 { return s.Metric(e, ctx) }
	case FIFO:
		score = func(e *Entry) float64 { return -float64(e.Seq) }
	case RL:
		score = func(e *Entry) float64 { return -AvgRemainingLifetime(e, ctx.Now) }
	default:
		for ; k > 0 && len(q.entries) > 0; k-- {
			i := s.Pick(q.entries, ctx)
			if i < 0 || i >= len(q.entries) {
				break
			}
			out = append(out, q.RemoveAt(i))
		}
		return out, drops
	}
	var h []burstItem
	for i, e := range q.entries {
		h = append(h, burstItem{score: score(e), seq: e.Seq, idx: i})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		burstSiftDown(h, i)
	}
	if k > len(h) {
		k = len(h)
	}
	var taken []int
	for i := 0; i < k; i++ {
		top := h[0]
		out = append(out, q.entries[top.idx])
		taken = append(taken, top.idx)
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		if len(h) > 0 {
			burstSiftDown(h, 0)
		}
	}
	for i := 1; i < len(taken); i++ {
		for j := i; j > 0 && taken[j] > taken[j-1]; j-- {
			taken[j], taken[j-1] = taken[j-1], taken[j]
		}
	}
	for _, i := range taken {
		q.RemoveAt(i)
	}
	return out, drops
}

// burstStrategies is the five built-in strategies plus one outside the
// built-in score forms (Reference wraps Pick only), which sends
// PopBurstWhile down its sequential-Pick fallback.
var burstStrategies = []Strategy{FIFO{}, RL{}, MaxEB{}, MaxPC{}, MaxEBPC{R: 0.5}, Reference(MaxEB{})}

func sameEntries(t *testing.T, trial int, what string, got, want []*Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: %s took %d entries, reference %d", trial, what, len(got), len(want))
	}
	for i := range got {
		if got[i].MsgID != want[i].MsgID {
			t.Fatalf("trial %d: %s rank %d is msg %d, reference %d", trial, what, i, got[i].MsgID, want[i].MsgID)
		}
	}
}

// TestPopBurstWhileUncutEquivalence: with a cut that never trips (and
// with none at all, the PopBurst form), PopBurstWhile takes the old
// PopBurst's entries in the old order, reports the same prune drops and
// leaves the queue in the same slot order — over randomized queues, burst
// sizes and instants, under all five strategies and the Pick fallback.
// more sees every taken entry exactly once, in send order.
func TestPopBurstWhileUncutEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 600; trial++ {
		s := burstStrategies[trial%len(burstStrategies)]
		p := DefaultParams()
		p.PD = randPD(r)
		ref, cut, plain := NewQueue(70), NewQueue(70), NewQueue(70)
		for i, n := 0, r.Intn(48); i < n; i++ {
			e := randEntry(r, uint64(i))
			at := vtime.Millis(i)
			ref.Enqueue(e, at)
			cut.Enqueue(clone(e), at)
			plain.Enqueue(clone(e), at)
		}
		now := vtime.Millis(r.Float64() * 60 * vtime.Second)
		for round := 0; round < 3; round++ {
			k := r.Intn(20)
			want, wantDrops := refPopBurst(ref, s, now, p, k, nil)
			// Drops are a queue-owned buffer: compare before the next call.
			var seen []*Entry
			got, gotDrops := cut.PopBurstWhile(s, now, p, k, nil, func(e *Entry) bool {
				seen = append(seen, e)
				return true
			})
			sameDrops(t, trial, gotDrops, wantDrops)
			sameEntries(t, trial, s.Name()+" PopBurstWhile", got, want)
			sameEntries(t, trial, s.Name()+" more", seen, got)
			sameOrder(t, trial, cut, ref)

			got, gotDrops = plain.PopBurst(s, now, p, k, nil)
			sameDrops(t, trial, gotDrops, wantDrops)
			sameEntries(t, trial, s.Name()+" PopBurst", got, want)
			sameOrder(t, trial, plain, ref)
			now += vtime.Millis(r.Float64() * 10 * vtime.Second)
		}
	}
}

// TestPopBurstWhileCutAfterFirstIsPopNext: a cut that trips on the first
// entry makes every call a single pick, and repeated calls at one instant
// reproduce the PopNext sequence. Under FIFO (unique scores) and on the
// Pick fallback the sequences are identical; RL and the metric strategies
// tie (shared deadlines, saturated targets) and the two selections break
// ties differently (earlier arrival vs lower slot), so there the per-rank
// scores must match exactly. Entries past the cut stay queued.
func TestPopBurstWhileCutAfterFirstIsPopNext(t *testing.T) {
	p := DefaultParams()
	now := vtime.Millis(5000)
	const n = 64
	for _, s := range burstStrategies {
		seq, bur := burstQueue(n), burstQueue(n)
		ctx := seq.Context(now, p)
		for rank := 0; rank < n; rank++ {
			want, _ := seq.PopNext(s, now, p)
			calls := 0
			got, _ := bur.PopBurstWhile(s, now, p, 32, nil, func(*Entry) bool {
				calls++
				return false
			})
			if want == nil || len(got) != 1 || calls != 1 {
				t.Fatalf("%s rank %d: PopNext %v, PopBurstWhile took %d entries in %d calls of more",
					s.Name(), rank, want, len(got), calls)
			}
			if bur.Len() != n-rank-1 || seq.Len() != bur.Len() {
				t.Fatalf("%s rank %d: %d left queued, PopNext queue %d, want %d",
					s.Name(), rank, bur.Len(), seq.Len(), n-rank-1)
			}
			switch s := s.(type) {
			case MetricStrategy:
				if gs, ws := s.Metric(got[0], ctx), s.Metric(want, ctx); !bitsEq(gs, ws) {
					t.Fatalf("%s rank %d: score %g, PopNext %g", s.Name(), rank, gs, ws)
				}
			case RL:
				if gl, wl := AvgRemainingLifetime(got[0], now), AvgRemainingLifetime(want, now); !bitsEq(gl, wl) {
					t.Fatalf("RL rank %d: lifetime %g, PopNext %g", rank, gl, wl)
				}
			default:
				if got[0].Seq != want.Seq {
					t.Fatalf("%s rank %d: took seq %d, PopNext %d", s.Name(), rank, got[0].Seq, want.Seq)
				}
			}
			got[0].Release()
			want.Release()
		}
	}
}

// TestPopBurstWhileScratch pins what the doc comments promise about the
// queue-owned buffers: the prune drops come back whether or not the cut
// trips and are overwritten by the next call; taken holds the slots of
// the last burst only; and a warm queue selects without allocating,
// cut or uncut.
func TestPopBurstWhileScratch(t *testing.T) {
	p := DefaultParams()
	q := burstQueue(40)
	stale := GetEntry()
	stale.SizeKB = 50
	stale.Targets = append(stale.Targets, Target{Deadline: 10, Price: 1, Hops: 1, Rate: stats.Normal{Mean: 70, Sigma: 20}})
	q.Enqueue(stale, 0)

	stop := func(*Entry) bool { return false }
	out, drops := q.PopBurstWhile(MaxEB{}, 5000, p, 8, nil, stop)
	if len(out) != 1 || len(drops) != 1 || drops[0].Entry != stale || drops[0].Reason != DropExpired {
		t.Fatalf("cut burst: %d entries, drops %v; want 1 entry and the expired one", len(out), drops)
	}
	if len(q.taken) != 1 || q.Len() != 39 {
		t.Fatalf("cut burst: taken %v, %d queued; want one slot, 39 queued", q.taken, q.Len())
	}
	out, drops2 := q.PopBurstWhile(MaxEB{}, 5000, p, 8, out[:0], nil)
	if len(out) != 8 || len(q.taken) != 8 || q.Len() != 31 {
		t.Fatalf("uncut burst: %d entries, taken %v, %d queued; want 8, 8 slots, 31", len(out), q.taken, q.Len())
	}
	if len(drops2) != 0 {
		t.Fatalf("second burst re-reported %d drops", len(drops2))
	}
	for i := 1; i < len(q.taken); i++ {
		if q.taken[i] >= q.taken[i-1] {
			t.Fatalf("taken %v not in descending slot order", q.taken)
		}
	}

	// Warm scratch: a burst and the enqueues that refill it allocate
	// nothing, whichever way the cut goes.
	for _, more := range []func(*Entry) bool{nil, stop} {
		buf := make([]*Entry, 0, 8)
		allocs := testing.AllocsPerRun(50, func() {
			got, _ := q.PopBurstWhile(MaxEB{}, 5000, p, 8, buf[:0], more)
			for _, e := range got {
				q.Enqueue(e, 5000)
			}
		})
		if allocs != 0 {
			t.Errorf("warm PopBurstWhile (cut=%v) allocates %.1f per burst", more != nil, allocs)
		}
	}
}

// BenchmarkPopBurstCut is the paced sender's shape: every call scores the
// queue and takes one entry, the cut tripping at once.
func BenchmarkPopBurstCut(b *testing.B) {
	p := DefaultParams()
	q := burstQueue(512)
	stop := func(*Entry) bool { return false }
	out := make([]*Entry, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ = q.PopBurstWhile(MaxEB{}, 5000, p, 32, out[:0], stop)
		q.Enqueue(out[0], 5000)
	}
}

// tieEntry is one message with a single target whose success probability
// sits mid-curve at now = 0 (z ≈ 0 at deadline 3502, PD 2), so shifting
// the deadline by δ ms moves EB by about 4e-4·δ·price — below the
// bracket width for δ ≲ 1e-3.
func tieEntry(id uint64, deadline vtime.Millis, price float64) *Entry {
	return &Entry{MsgID: id, Seq: id, SizeKB: 50, Targets: []Target{{
		Deadline: deadline, Price: price, Hops: 1,
		Rate: stats.Normal{Mean: 70, Sigma: 20},
	}}}
}

// exactRan reports whether a Pick fell back to the exact loop: only
// that loop memoizes EB.
func exactRan(entries []*Entry) bool {
	for _, e := range entries {
		if e.cache.ebOK {
			return true
		}
	}
	return false
}

var tieStrategies = []Strategy{MaxEB{}, MaxPC{}, MaxEBPC{R: 0}, MaxEBPC{R: 0.3}, MaxEBPC{R: 1}}

// TestPickNearTies builds queues the brackets cannot decide — metrics
// closer than the bracket width, exactly equal metrics, negative prices,
// NaN metrics, and a queue far longer than any per-pick scratch — and
// demands the reference's pick, the first-index tie-break included, and
// that the exact fallback really ran (or, for a clear winner, did not).
func TestPickNearTies(t *testing.T) {
	const d = 3502
	ctx := Context{Now: 0, PD: 2, FT: 700}
	cases := []struct {
		name    string
		build   func() []*Entry
		want    int  // -1: whatever the reference says
		overlap bool // the exact loop must run
	}{
		{"clear winner", func() []*Entry {
			return []*Entry{tieEntry(0, d-400, 1), tieEntry(1, d+400, 1), tieEntry(2, d, 1)}
		}, 1, false},
		{"closer than the bracket", func() []*Entry {
			return []*Entry{tieEntry(0, d, 1), tieEntry(1, d+1e-4, 1), tieEntry(2, d-1e-4, 1)}
		}, 1, true},
		{"exactly equal, first index", func() []*Entry {
			return []*Entry{tieEntry(0, d-400, 1), tieEntry(1, d, 1), tieEntry(2, d, 1), tieEntry(3, d, 1)}
		}, 1, true},
		{"negative price", func() []*Entry {
			return []*Entry{tieEntry(0, d, -1), tieEntry(1, d+1e-4, -1), tieEntry(2, d-1e-4, -1)}
		}, -1, true},
		{"negative beside positive", func() []*Entry {
			return []*Entry{tieEntry(0, d, -2), tieEntry(1, d+400, 1e-9), tieEntry(2, d, 1e-9)}
		}, 1, false},
		{"NaN first", func() []*Entry {
			return []*Entry{tieEntry(0, d, math.NaN()), tieEntry(1, d+400, 1), tieEntry(2, d, 1)}
		}, 0, true},
		{"NaN in the middle", func() []*Entry {
			return []*Entry{tieEntry(0, d, 1), tieEntry(1, d+400, math.NaN()), tieEntry(2, d+1, 1)}
		}, 2, true},
		{"infinite price", func() []*Entry {
			return []*Entry{tieEntry(0, d, 1), tieEntry(1, d+400, math.Inf(1)), tieEntry(2, d+1, 1)}
		}, -1, true}, // EB picks 1; PC's Inf − Inf is NaN and never wins
	}
	for _, c := range cases {
		for _, s := range tieStrategies {
			entries := c.build()
			got := s.Pick(entries, ctx)
			ref := Reference(s).Pick(c.build(), ctx)
			if got != ref || c.want >= 0 && got != c.want {
				t.Errorf("%s, %s: Pick = %d, reference %d, want %d", c.name, s.Name(), got, ref, c.want)
			}
			if ran := exactRan(entries); ran != c.overlap {
				t.Errorf("%s, %s: exact fallback ran = %v, want %v", c.name, s.Name(), ran, c.overlap)
			}
		}
	}

	// A long queue of near-ties around one deadline, the maximum
	// duplicated late: the pick is the first copy of the maximum.
	r := rand.New(rand.NewSource(6))
	build := func() []*Entry {
		r.Seed(6)
		entries := make([]*Entry, 1500)
		for i := range entries {
			entries[i] = tieEntry(uint64(i), d+vtime.Millis(r.Float64()*2e-3), 1)
		}
		entries[1400] = tieEntry(1400, d+3e-3, 1)
		entries[700] = tieEntry(700, d+3e-3, 1)
		return entries
	}
	for _, s := range tieStrategies {
		entries := build()
		if got, ref := s.Pick(entries, ctx), Reference(s).Pick(build(), ctx); got != ref || got != 700 {
			t.Errorf("long queue, %s: Pick = %d, reference %d, want 700", s.Name(), got, ref)
		}
		if !exactRan(entries) {
			t.Errorf("long queue, %s: the exact fallback did not run", s.Name())
		}
	}
}

// fuzzBytes hands out a fuzz input a byte at a time, zeros once spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzPrices mixes the paper's unit price with the values that stress
// the brackets' arithmetic: zero, negative, tiny, huge and non-finite.
var fuzzPrices = [16]float64{1, 1, 1, 1, 2, 3, 0.5, 1e-9, 0, -1, -3, 1e12, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)}

// decodeSchedule builds an entry set and a decision context from b.
// Each entry is fresh, or a copy of an earlier one with its deadlines
// nudged by 2^-k ms (k up to 48), or an exact copy, so near-ties and
// exact ties are common; a target can be placed with its success
// probability right at ε.
func decodeSchedule(b fuzzBytes) ([]*Entry, Context, float64, float64) {
	pd := []vtime.Millis{0, 1, 2, 5}[b.next()%4]
	ctx := Context{Now: vtime.Millis(b.next()) * 40, PD: pd, FT: vtime.Millis(b.next()) * 30}
	r := float64(int(b.next())-20) / 200 // EBPC weight, a little outside [0, 1] too
	eps := []float64{DefaultEpsilon, 0.01, 0.3, 1, 0, 2}[b.next()%6]
	n := 1 + int(b.next())
	entries := make([]*Entry, 0, n)
	for i := 0; i < n; i++ {
		op := b.next()
		if i > 0 && op&3 != 0 {
			c := clone(entries[int(b.next())%len(entries)])
			c.MsgID = uint64(i)
			if op&3 != 3 { // nudged copy
				delta := math.Ldexp(1, -int(b.next()%49))
				if op&4 != 0 {
					delta = -delta
				}
				for j := range c.Targets {
					c.Targets[j].Deadline += delta
				}
			}
			entries = append(entries, c)
			continue
		}
		e := &Entry{MsgID: uint64(i), SizeKB: []float64{0, 0.5, 10, 50, 100, 1e-6, 7, 50}[op>>5]}
		for k := int(op>>2) & 3; k >= 0; k-- {
			tb := b.next()
			tg := Target{
				Price: fuzzPrices[tb&15],
				Hops:  int(tb>>4) & 3,
				Rate:  stats.Normal{Mean: 20 + 2*float64(b.next()), Sigma: []float64{0, 5, 20, 40}[tb>>6]},
			}
			size := math.Max(e.SizeKB, minSizeKB)
			base := ctx.Now + float64(tg.Hops)*pd
			if b.next()&1 == 0 && tg.Rate.Sigma > 0 && eps > 0 && eps < 1 {
				// At ε, give or take a fraction of a millisecond.
				z := stats.StdNormalQuantile(eps)
				tg.Deadline = base + size*(tg.Rate.Mean+z*tg.Rate.Sigma) + float64(int8(b.next()))*1e-3
			} else {
				tg.Deadline = base + float64(int8(b.next()))*size*tg.Rate.Mean/32
			}
			e.Targets = append(e.Targets, tg)
		}
		entries = append(entries, e)
	}
	return entries, ctx, r, eps
}

// FuzzSchedule checks the bracketed decisions against the naive
// reference on decoded entry sets: Pick for EB, PC and EBPC(r) — the
// same index, ties and NaNs included — and Hopeless against
// RefMaxSuccess < ε for every entry.
func FuzzSchedule(f *testing.F) {
	for _, seed := range [][]byte{
		{2, 0, 30, 120, 0, 3, 0x04, 0x20, 10, 0x21, 30, 1, 0},
		{2, 10, 30, 80, 0, 8, 0x60, 0x80, 25, 0, 3, 0x01, 0, 0x03, 1, 0x02, 0, 40},
		{1, 5, 5, 200, 1, 4, 0x6c, 0x1d, 40, 0, 0x0e, 50, 1, 0, 0x01, 0, 30},
		{3, 1, 200, 20, 2, 255, 0x40, 0x93, 60, 1, 9},
		{2, 0, 0, 220, 0, 2, 0x2c, 0x2d, 70, 0, 3, 0x3e, 70, 0, 3, 0x01, 0, 0, 0x03, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, ctx, r, eps := decodeSchedule(b)
		for _, s := range []Strategy{MaxEB{}, MaxPC{}, MaxEBPC{R: r}} {
			if got, want := s.Pick(entries, ctx), Reference(s).Pick(entries, ctx); got != want {
				t.Fatalf("%s.Pick = %d, reference %d (ctx %+v)", s.Name(), got, want, ctx)
			}
		}
		for _, e := range entries {
			for _, p := range []Params{{PD: ctx.PD, Epsilon: eps}, {PD: ctx.PD, Epsilon: DefaultEpsilon}} {
				want := p.Epsilon > 0 && RefMaxSuccess(e, ctx.Now, p.PD) < p.Epsilon
				if got := Hopeless(e, ctx.Now, p); got != want {
					t.Fatalf("msg %d: Hopeless(ε=%v) = %v, reference %v (max success %v)",
						e.MsgID, p.Epsilon, got, want, RefMaxSuccess(e, ctx.Now, p.PD))
				}
			}
		}
	})
}
