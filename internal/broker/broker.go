// Package broker implements the message-broker node of §3.2 (Figure 2):
// receive → process (match against the subscription table, resolve next
// hops) → forward via per-neighbor output queues scheduled by a core
// strategy. The broker is runtime-agnostic: the discrete-event simulator
// and the live TCP runtime both drive the same Process logic and the same
// queues.
//
// Each caller processes through its own Processor (per-caller
// match/grouping scratch); Processors of one broker may run in parallel
// for independent publication streams, synchronizing only where state
// is genuinely shared — per-queue locks around enqueues and a striped
// dedup set. Broker.ProcessWith lends one caller-owned Processor to many
// brokers: the simulator's single goroutine serves all of its brokers
// from one.
package broker

import (
	"fmt"
	"sync"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/vtime"
)

// Config assembles a broker.
type Config struct {
	ID       msg.NodeID
	Scenario msg.Scenario
	Params   core.Params
	Strategy core.Strategy
	Table    *routing.Table
	// LinkMeans maps each downstream neighbor to the believed mean
	// per-KB rate of the link, used by the queues' FT estimate.
	LinkMeans map[msg.NodeID]float64
	// Dedup drops duplicate message arrivals (multi-path routing mode).
	Dedup bool
	// Pressure is the per-output-queue occupancy threshold beyond which
	// Process sheds the lowest-scored entries (graceful degradation; see
	// core.Queue.ShedWorst). 0 disables shedding.
	Pressure int
}

// Broker is one overlay node.
type Broker struct {
	id       msg.NodeID
	scenario msg.Scenario
	params   core.Params
	strategy core.Strategy
	table    *routing.Table

	linkMeans map[msg.NodeID]float64
	// qmu guards the queues map (not the queues themselves: concurrent
	// owners stripe on each queue's own mutex).
	qmu    sync.RWMutex
	queues map[msg.NodeID]*core.Queue

	dedup    bool
	seen     dedupSet
	pressure int
}

// New builds a broker from its configuration.
func New(cfg Config) (*Broker, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("broker %d: nil strategy", cfg.ID)
	}
	if cfg.Table == nil {
		return nil, fmt.Errorf("broker %d: nil routing table", cfg.ID)
	}
	b := &Broker{
		id:        cfg.ID,
		scenario:  cfg.Scenario,
		params:    cfg.Params,
		strategy:  cfg.Strategy,
		table:     cfg.Table,
		linkMeans: cfg.LinkMeans,
		queues:    make(map[msg.NodeID]*core.Queue),
		dedup:     cfg.Dedup,
		pressure:  cfg.Pressure,
	}
	if b.dedup {
		b.seen.init()
	}
	return b, nil
}

// ID returns the broker's node id.
func (b *Broker) ID() msg.NodeID { return b.id }

// Params returns the scheduling parameters.
func (b *Broker) Params() core.Params { return b.params }

// Strategy returns the scheduling strategy.
func (b *Broker) Strategy() core.Strategy { return b.strategy }

// Table returns the broker's routing table. The live runtime mutates it
// under its own lock when subscriptions flood in dynamically.
func (b *Broker) Table() *routing.Table { return b.table }

// Queue returns (creating on first use) the output queue toward a
// downstream neighbor.
func (b *Broker) Queue(next msg.NodeID) *core.Queue {
	b.qmu.RLock()
	q := b.queues[next]
	b.qmu.RUnlock()
	if q != nil {
		return q
	}
	b.qmu.Lock()
	defer b.qmu.Unlock()
	if q = b.queues[next]; q == nil {
		q = core.NewQueue(b.linkMeans[next])
		b.queues[next] = q
	}
	return q
}

// EachQueue calls fn for every instantiated queue under the map lock,
// safe against concurrent queue creation. fn must not call back into
// Queue.
func (b *Broker) EachQueue(fn func(next msg.NodeID, q *core.Queue)) {
	b.qmu.RLock()
	defer b.qmu.RUnlock()
	for next, q := range b.queues {
		fn(next, q)
	}
}

// PeakQueue returns the largest occupancy any output queue reached.
func (b *Broker) PeakQueue() int {
	peak := 0
	b.EachQueue(func(_ msg.NodeID, q *core.Queue) {
		q.Lock()
		peak = max(peak, q.Peak())
		q.Unlock()
	})
	return peak
}

// Delivery is one local hand-off to a subscriber.
type Delivery struct {
	SubID     msg.SubID
	Price     float64
	Published vtime.Millis // the message's publication instant
	Allowed   vtime.Millis // applicable bound (after any relaxed floor)
	Latency   vtime.Millis
	Valid     bool // delivered within the applicable bound
}

// Result reports what Process did with a message. The slices are views
// over processor-owned scratch buffers, valid until that processor's
// next Process call; runtimes consume them before processing again.
type Result struct {
	// Deliveries to subscribers attached to this broker.
	Deliveries []Delivery
	// EnqueuedHops lists downstream neighbors whose queues received a new
	// entry; the runtime kicks those links.
	EnqueuedHops []msg.NodeID
	// ArrivalDrops counts forwarding intents discarded immediately
	// (expired or hopeless before queueing).
	ArrivalDrops int
	// Shed lists entries evicted by pressure shedding (Config.Pressure):
	// when an enqueue pushed a queue past its threshold, the
	// lowest-scored entries under the active strategy. The runtime
	// accounts and releases them.
	Shed []*core.Entry
	// Duplicate is true when dedup suppressed the whole message.
	Duplicate bool
}

// ProcessWith handles one received message through a caller-owned
// Processor, rebinding it to this broker first: one goroutine driving
// many brokers keeps one set of scratch buffers for all of them.
func (b *Broker) ProcessWith(p *Processor, m *msg.Message, now vtime.Millis) Result {
	p.b = b
	return p.Process(m, now)
}

// Processor is one worker's view of a broker: the per-message scratch
// (match buffer, next-hop grouper, result slices, within-message
// subscription dedup) that Process needs exclusively, plus a reference
// to the shared broker state. Processors of one broker may Process
// concurrently — for distinct messages — as long as the routing table is
// not mutated underneath them; enqueues take each queue's lock and the
// arrival dedup set stripes internally. The scratch holds nothing of one
// broker between messages (its stamps are epochs), so a caller-owned
// Processor may also serve several brokers from one goroutine, one
// message at a time, through Broker.ProcessWith.
type Processor struct {
	b *Broker

	matchBuf []*routing.Entry
	// matchScratch is this worker's private counting-index state, so
	// concurrent Processors share the table's index without sharing any
	// mutable match state.
	matchScratch filter.MatchScratch
	grouper      routing.Grouper
	res          Result
	// seen dedups subscriptions within one message, when stamp says the
	// match may hold one twice (routing.Table.Distinct).
	seen  subStamps
	epoch uint64
	stamp bool
}

// NewProcessor returns a Processor for concurrent use.
func (b *Broker) NewProcessor() *Processor {
	return &Processor{b: b}
}

// denseSubs bounds the id-indexed stamp slice: subscription ids are
// usually small and dense (populations number from zero); ids beyond it
// (or negative) stamp a map instead of growing the slice without limit.
const denseSubs = 1 << 12

// subStamps is the within-message subscription dedup: an id is taken
// when its stamp equals the processor's current epoch, so nothing is
// cleared between messages.
type subStamps struct {
	dense  []uint64
	sparse map[msg.SubID]uint64
}

// first stamps id with epoch and reports whether it was not yet stamped
// with it.
func (s *subStamps) first(id msg.SubID, epoch uint64) bool {
	if id >= 0 && id < denseSubs {
		if int(id) >= len(s.dense) {
			s.dense = append(s.dense, make([]uint64, int(id)+1-len(s.dense))...)
		}
		if s.dense[id] == epoch {
			return false
		}
		s.dense[id] = epoch
		return true
	}
	if s.sparse[id] == epoch {
		return false
	}
	if s.sparse == nil {
		s.sparse = make(map[msg.SubID]uint64)
	}
	s.sparse[id] = epoch
	return true
}

// Process handles one received message at the given time: deliver to
// local subscribers, and enqueue one entry per distinct next hop carrying
// the targets routed through it (§4.2's table drives both). It implements
// the early deletion rule of §5.4 at arrival: forwarding intents that are
// already expired — or hopeless when ε-detection is on — are dropped
// before consuming queue space.
func (p *Processor) Process(m *msg.Message, now vtime.Millis) Result {
	b := p.b
	res := &p.res
	res.Deliveries = res.Deliveries[:0]
	res.EnqueuedHops = res.EnqueuedHops[:0]
	res.ArrivalDrops = 0
	res.Shed = res.Shed[:0]
	res.Duplicate = false
	if b.dedup {
		if !b.seen.add(m.ID) {
			res.Duplicate = true
			return *res
		}
	}

	// Every processor matches through its own scratch, so concurrent ones
	// share the table (and any counting index) without sharing mutable
	// match state; table mutations (subscription floods) exclude them via
	// the runtime's write lock.
	p.matchBuf = b.table.MatchAppendWith(&p.matchScratch, m, p.matchBuf[:0])
	matched := p.matchBuf
	if len(matched) == 0 {
		return *res
	}
	// With one entry per subscription and no group members, the match
	// holds no duplicate to collapse.
	p.stamp = !b.table.Distinct(m.Ingress)
	hops, groups := p.grouper.Group(matched)
	for k, hop := range hops {
		entries := groups[k]
		if hop == msg.None {
			// Multi-path routing installs one local entry per path;
			// deliver to each subscriber once per message.
			p.epoch++
			for _, e := range entries {
				p.deliverLocal(m, e, e.Sub, now, res)
				if e.Agg == nil {
					continue
				}
				// Aggregated entry: fan delivery out to the exact-duplicate
				// members folded into this representative. Members share the
				// representative's filter and delivery terms, so the match
				// and the bound judgment above apply to each verbatim.
				for _, member := range e.Agg.Members {
					p.deliverLocal(m, e, member, now, res)
				}
			}
			continue
		}
		entry := p.buildEntry(m, entries)
		if !core.Viable(entry, now, b.params) {
			res.ArrivalDrops++
			entry.Release()
			continue
		}
		q := b.Queue(hop)
		q.Lock()
		q.Enqueue(entry, now)
		if b.pressure > 0 && q.Len() > b.pressure {
			res.Shed = q.ShedWorst(b.strategy, now, b.params, q.Len()-b.pressure, res.Shed)
		}
		q.Unlock()
		res.EnqueuedHops = append(res.EnqueuedHops, hop)
	}
	return *res
}

// deliverLocal appends one local delivery for a subscription matched
// through entry e (the subscription itself, or a group member folded
// into it), once per message across multi-path duplicates.
func (p *Processor) deliverLocal(m *msg.Message, e *routing.Entry, sub *msg.Subscription, now vtime.Millis, res *Result) {
	if p.stamp && !p.seen.first(sub.ID, p.epoch) {
		return
	}
	allowed, price := p.b.scenario.AllowedDelay(m, sub)
	if e.Relaxed > allowed {
		// Topology repair renegotiated this route's bound up to the
		// cheapest feasible value; judge against the floor.
		allowed = e.Relaxed
	}
	latency := now - m.Published
	res.Deliveries = append(res.Deliveries, Delivery{
		SubID:     sub.ID,
		Price:     price,
		Published: m.Published,
		Allowed:   allowed,
		Latency:   latency,
		Valid:     allowed > 0 && latency <= allowed,
	})
}

// buildEntry converts routing entries for one next hop into a pooled
// queue entry with per-subscriber targets (§4.2 → §5.1 inputs). The
// entry is released back to the pool by whoever removes it from the
// queue (or immediately, if it never gets enqueued).
func (p *Processor) buildEntry(m *msg.Message, entries []*routing.Entry) *core.Entry {
	b := p.b
	e := core.GetEntry()
	e.MsgID = uint64(m.ID)
	e.SizeKB = m.SizeKB
	e.Published = m.Published
	e.Data = m
	p.epoch++
	for _, re := range entries {
		// Collapse multi-path duplicates of the same subscription within
		// one next hop so EB does not double-count its benefit.
		if p.stamp && !p.seen.first(re.Sub.ID, p.epoch) {
			continue
		}
		allowed, price := b.scenario.AllowedDelay(m, re.Sub)
		if re.Relaxed > allowed {
			allowed = re.Relaxed
		}
		if allowed <= 0 {
			// No bound applies (misconfigured subscription); treat as
			// undeliverable rather than infinitely patient.
			continue
		}
		e.Targets = append(e.Targets, core.Target{
			SubID:    int32(re.Sub.ID),
			Deadline: m.Published + allowed,
			Price:    price,
			Hops:     int(re.Hops),
			Rate:     re.Rate,
		})
	}
	return e
}

// dedupStripes is the stripe count of the arrival dedup set; a power of
// two so the stripe pick is a mask.
const dedupStripes = 16

// dedupSet is the striped message-id set behind multi-path arrival
// dedup: concurrent Processors contend only when two copies of messages
// land on the same stripe at the same instant.
type dedupSet struct {
	stripes [dedupStripes]struct {
		mu sync.Mutex
		m  map[msg.ID]struct{}
	}
}

func (d *dedupSet) init() {
	for i := range d.stripes {
		d.stripes[i].m = make(map[msg.ID]struct{})
	}
}

// add inserts id and reports whether it was new.
func (d *dedupSet) add(id msg.ID) bool {
	// Publisher index lives in the high 32 bits, sequence in the low;
	// folding both spreads a single hot stream across stripes.
	s := &d.stripes[(uint64(id)^uint64(id)>>32)&(dedupStripes-1)]
	s.mu.Lock()
	_, dup := s.m[id]
	if !dup {
		s.m[id] = struct{}{}
	}
	s.mu.Unlock()
	return !dup
}
