package core

import (
	"sync"

	"bdps/internal/vtime"
)

// Queue is one broker output queue, feeding one downstream link (§3.2,
// Figure 2: "one output queue is created for each downstream neighbor").
//
// The queue is strategy-agnostic storage: Enqueue stamps arrival order,
// Prune applies expiry and invalid-message detection, and the owner asks a
// Strategy to pick the next entry when the link frees up. Metrics are
// computed lazily at decision time because they depend on the current
// clock — priorities decay as messages age, so precomputed orderings go
// stale.
//
// FT (§5.2) is estimated exactly as the paper prescribes: "the average
// size of all messages multiplied by the mean value of the transmitting
// rate on the link", with the average taken over everything this queue
// has seen.
type Queue struct {
	// Mutex serializes owners that share one queue across goroutines:
	// the live data path locks it around Enqueue on the ingress
	// side and PopBurstWhile on the egress side (the per-queue stripe of its
	// locking scheme). Single-threaded drivers — the simulator — never
	// touch it.
	sync.Mutex

	// LinkMean is the believed mean per-KB transmission time of the link
	// this queue feeds, used for the FT estimate.
	LinkMean float64

	entries []*Entry
	nextSeq uint64

	enqSizeSum float64
	enqCount   int

	// Peak occupancy, for diagnostics.
	peak int

	// drops is the reusable Prune output buffer; see Prune.
	drops []Drop
	// burst and taken are PopBurst's reusable selection scratch: the
	// score heap, and the q.entries slots the last burst took.
	burst []burstItem
	taken []int

	// Prune skip state: after a full scan under parameters wakeP, no
	// entry can expire or turn hopeless before wakeUntil (the earliest
	// saturation time over all queued targets — while every success
	// probability is exactly 1, neither drop condition can fire).
	// Enqueue lowers wakeUntil; a scan under different parameters
	// recomputes it.
	wakeOK    bool
	wakeP     Params
	wakeUntil vtime.Millis
}

// NewQueue returns an empty queue for a link with the given believed mean
// rate (ms/KB).
func NewQueue(linkMean float64) *Queue {
	return &Queue{LinkMean: linkMean}
}

// Enqueue adds an entry, stamping its Seq and Enqueued fields, and
// extends the Prune skip window to cover it. An already-built metric
// cache is trusted and reused — producers typically just ran Viable,
// which built it for the final target set.
func (q *Queue) Enqueue(e *Entry, now vtime.Millis) {
	e.Seq = q.nextSeq
	q.nextSeq++
	e.Enqueued = now
	q.entries = append(q.entries, e)
	q.enqSizeSum += e.SizeKB
	q.enqCount++
	if len(q.entries) > q.peak {
		q.peak = len(q.entries)
	}
	if q.wakeOK {
		if ms := e.metrics(q.wakeP.PD).minSure; ms < q.wakeUntil {
			q.wakeUntil = ms
		}
	}
}

// Len returns the number of queued entries.
func (q *Queue) Len() int { return len(q.entries) }

// Peak returns the maximum occupancy observed.
func (q *Queue) Peak() int { return q.peak }

// Entries exposes the queued entries for strategies. The slice is owned
// by the queue; callers must not grow or reorder it.
func (q *Queue) Entries() []*Entry { return q.entries }

// RemoveAt removes and returns the i-th entry in O(1) by swapping with
// the tail. Strategies identify entries by index; arrival order lives in
// Entry.Seq, so the in-slice order is free to change.
func (q *Queue) RemoveAt(i int) *Entry {
	e := q.entries[i]
	last := len(q.entries) - 1
	q.entries[i] = q.entries[last]
	q.entries[last] = nil
	q.entries = q.entries[:last]
	return e
}

// FT estimates the time to transmit one other message first: average
// enqueued size × believed link mean rate. Before any enqueue it returns
// 0 (there is no "other message" to wait for).
func (q *Queue) FT() vtime.Millis {
	if q.enqCount == 0 {
		return 0
	}
	return vtime.Millis(q.enqSizeSum / float64(q.enqCount) * q.LinkMean)
}

// Context builds the metric context for a decision at time now.
func (q *Queue) Context(now vtime.Millis, p Params) Context {
	return Context{Now: now, PD: p.PD, FT: q.FT()}
}

// DropReason classifies why Prune removed an entry.
type DropReason uint8

// Drop reasons.
const (
	// DropExpired: every target's deadline has passed (all strategies).
	DropExpired DropReason = iota
	// DropHopeless: ε-detection fired — every target's success
	// probability is below Params.Epsilon (§5.4).
	DropHopeless
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropExpired:
		return "expired"
	case DropHopeless:
		return "hopeless"
	}
	return "unknown"
}

// Drop records one pruned entry.
type Drop struct {
	Entry  *Entry
	Reason DropReason
}

// Prune deletes expired and (when p.Epsilon > 0) hopeless entries,
// returning what was dropped. Brokers call it before every scheduling
// decision, implementing "delete as early as possible the messages in
// transit that have expired" (§1) and condition (11) of §5.4.
//
// The returned slice is a buffer owned by the queue, valid until the
// next Prune or PopNext call; consume it before scheduling again.
//
// Prune is O(1) while the clock has not reached the queue's wake time:
// as long as every queued target is still in its saturated region
// (success probability exactly 1), no entry can be expired (the
// saturation time precedes the deadline) nor hopeless (1 ≥ ε), so the
// scan is skipped entirely. This is the "stale-priority" fast path that
// keeps a drain from rescanning the whole queue on every dequeue.
func (q *Queue) Prune(now vtime.Millis, p Params) []Drop {
	if q.wakeOK && p == q.wakeP && now <= q.wakeUntil {
		return nil
	}
	if q.drops == nil && len(q.entries) > 0 {
		// First prune of this queue: size the reusable drop buffer for
		// the worst case (everything expired at once) so a mass-expiry
		// scan does not regrow it allocation by allocation.
		q.drops = make([]Drop, 0, len(q.entries))
	}
	q.drops = q.drops[:0]
	wake := vtime.Inf
	for i := 0; i < len(q.entries); {
		e := q.entries[i]
		switch {
		case AllExpired(e, now):
			q.drops = append(q.drops, Drop{Entry: q.RemoveAt(i), Reason: DropExpired})
		case Hopeless(e, now, p):
			q.drops = append(q.drops, Drop{Entry: q.RemoveAt(i), Reason: DropHopeless})
		default:
			if ms := e.metrics(p.PD).minSure; ms < wake {
				wake = ms
			}
			i++
		}
	}
	// ε > 1 would make even certain targets hopeless and a negative PD
	// would put saturation after the deadline; neither occurs in
	// practice, but the skip window is only sound without them.
	q.wakeOK = p.Epsilon <= 1 && p.PD >= 0
	q.wakeP = p
	q.wakeUntil = wake
	return q.drops
}

// PopNext prunes the queue, then lets the strategy pick and removes the
// chosen entry. It returns the entry (nil if the queue emptied) and the
// prune drops (a queue-owned buffer, valid until the next Prune or
// PopNext call).
func (q *Queue) PopNext(s Strategy, now vtime.Millis, p Params) (*Entry, []Drop) {
	drops := q.Prune(now, p)
	if len(q.entries) == 0 {
		return nil, drops
	}
	i := s.Pick(q.entries, q.Context(now, p))
	if i < 0 || i >= len(q.entries) {
		return nil, drops
	}
	return q.RemoveAt(i), drops
}

// burstItem is one scored entry in PopBurst's selection heap.
type burstItem struct {
	score float64 // higher first
	seq   uint64  // tie-break: earlier arrival first
	idx   int     // position in q.entries at scoring time
}

// PopBurst prunes once, then removes up to k entries in the order the
// strategy would send them at one scheduling instant, appending them to
// out. Every built-in strategy ranks entries by a per-entry score that
// is independent of the rest of the queue (EB, PC, EBPC maximize a
// metric; RL minimizes remaining lifetime; FIFO minimizes Seq), so k
// successive Picks at one instant are top-k selection; PopBurst scores
// each entry once and heap-selects — O(n + k log n) instead of Pick's
// O(k·n) — which is what keeps a deep backlog drain linear per message.
// Ties (common under EB once targets saturate) break toward the earlier
// arrival, where sequential Pick breaks toward the current slice index;
// both are deterministic resolutions of equal priorities. A strategy
// outside the built-in forms falls back to sequential PopNext picks.
//
// The drops slice is a queue-owned buffer, valid until the next Prune,
// PopNext or PopBurst call.
func (q *Queue) PopBurst(s Strategy, now vtime.Millis, p Params, k int, out []*Entry) ([]*Entry, []Drop) {
	return q.PopBurstWhile(s, now, p, k, out, nil)
}

// PopBurstWhile is PopBurst with a caller-defined cut: each selected
// entry is handed to more, in send order, the moment it is taken, and
// the burst ends with the first entry for which more reports false (or
// at k, or when the queue empties). The first entry is always taken.
// Entries past the cut are never popped: they stay queued, to be scored
// again — against whatever has arrived since — at the next scheduling
// instant. That is what lets an owner bound a burst by something other
// than a count (the live sender bounds it by accumulated transfer time)
// without giving up the single score sweep. A nil more never cuts.
func (q *Queue) PopBurstWhile(s Strategy, now vtime.Millis, p Params, k int, out []*Entry, more func(*Entry) bool) ([]*Entry, []Drop) {
	drops := q.Prune(now, p)
	return q.selectBurst(s, q.Context(now, p), k, out, more, false), drops
}

// selectBurst removes up to k entries in score order — best first, or,
// for ShedWorst, worst first — appending them to out; more is
// PopBurstWhile's cut. Worst-first is the same selection on negated keys:
// score → −score and seq → ^seq order the one heap "lowest score first,
// ties toward the later arrival".
func (q *Queue) selectBurst(s Strategy, ctx Context, k int, out []*Entry, more func(*Entry) bool, worst bool) []*Entry {
	if len(q.entries) == 0 || k <= 0 {
		return out
	}
	var score func(e *Entry) float64
	switch s := s.(type) {
	case MetricStrategy:
		score = func(e *Entry) float64 { return s.Metric(e, ctx) }
	case FIFO:
		// Seq asc ≡ score desc; exact while Seq < 2^53 (every run ever).
		score = func(e *Entry) float64 { return -float64(e.Seq) }
	case RL:
		score = func(e *Entry) float64 { return -AvgRemainingLifetime(e, ctx.Now) }
	default:
		if worst {
			// No score to rank by: shed the newest arrivals.
			score = func(e *Entry) float64 { return -float64(e.Seq) }
			break
		}
		for ; k > 0 && len(q.entries) > 0; k-- {
			i := s.Pick(q.entries, ctx)
			if i < 0 || i >= len(q.entries) {
				break
			}
			e := q.RemoveAt(i)
			out = append(out, e)
			if more != nil && !more(e) {
				break
			}
		}
		return out
	}

	// Score every entry once, heapify, pop the best until k or the cut.
	h := q.burst[:0]
	for i, e := range q.entries {
		h = append(h, burstItem{score: score(e), seq: e.Seq, idx: i})
	}
	if worst {
		for i := range h {
			h[i].score, h[i].seq = -h[i].score, ^h[i].seq
		}
	}
	q.burst = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		burstSiftDown(h, i)
	}
	if k > len(h) {
		k = len(h)
	}
	taken := q.taken[:0]
	for i := 0; i < k; i++ {
		top := h[0]
		e := q.entries[top.idx]
		out = append(out, e)
		taken = append(taken, top.idx)
		if more != nil && !more(e) {
			break
		}
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		if len(h) > 0 {
			burstSiftDown(h, 0)
		}
	}
	q.taken = taken
	// Remove the taken slots in descending index order: RemoveAt swaps
	// the tail in, which only disturbs indices above the one removed —
	// all already handled. Insertion sort: k is burst-sized and the
	// stdlib sort would box two interfaces per call.
	for i := 1; i < len(taken); i++ {
		for j := i; j > 0 && taken[j] > taken[j-1]; j-- {
			taken[j], taken[j-1] = taken[j-1], taken[j]
		}
	}
	for _, i := range taken {
		q.RemoveAt(i)
	}
	return out
}

// ShedWorst removes up to k entries with the lowest scheduling score —
// the messages least likely to meet their bounds under the active
// strategy — appending them to out. It is the graceful-degradation
// counterpart of PopBurst's top-k: the same single score sweep and heap
// select with the comparison inverted (and no prune), so an overloaded
// queue sheds its worst prospects instead of tail-dropping whatever
// arrived last. Ties shed the later arrival (the freshest backlog goes
// first), and strategies outside the built-in score forms fall back to
// shedding the newest arrivals. The caller owns the returned entries:
// account and Release them.
func (q *Queue) ShedWorst(s Strategy, now vtime.Millis, p Params, k int, out []*Entry) []*Entry {
	return q.selectBurst(s, q.Context(now, p), k, out, nil, true)
}

func burstLess(a, b burstItem) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.seq < b.seq
}

func burstSiftDown(h []burstItem, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		best := l
		if r := l + 1; r < len(h) && burstLess(h[r], h[l]) {
			best = r
		}
		if !burstLess(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
