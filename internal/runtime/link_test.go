package runtime

import (
	"slices"
	"testing"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// lossEnd closes every FuzzLink adversary's window: the program's clock
// stays below it, and the final burst, sent at it, travels clean.
const lossEnd = vtime.Millis(1 << 40)

// linkProgram is one decoded FuzzLink input. Header bytes choose the
// adversary's loss, duplicate and reorder rates, the retry policy (deadline
// aware, blind or off, and MaxAttempts), the live shape's burst cap and
// the reorder window; every later byte is one op, its low two bits the
// kind and the rest its argument:
//
//	0  enqueue 1–8 entries (deadlines from the argument), then drain the
//	   queue in bursts of the shape under test
//	1  hand 1–64 frames off the wire to the receiving half
//	2  the sender is reborn: its epoch and the receiver's floor rise, so
//	   the frames still on the wire arrive stale
//	3  advance the clock
type linkProgram struct {
	loss   LinkLoss
	rel    Reliability
	cut    int
	window int
	ops    []byte
}

func decodeLinkProgram(b []byte) (linkProgram, bool) {
	if len(b) < 6 {
		return linkProgram{}, false
	}
	p := linkProgram{
		loss: LinkLoss{
			Rate:    0.7 * float64(b[0]) / 255,
			Dup:     0.5 * float64(b[1]) / 255,
			Reorder: float64(b[2]) / 255,
			End:     lossEnd,
		},
		cut:    1 + int(b[4])%8,
		window: 2 + int(b[5])%8,
		ops:    b[6:min(len(b), 6+64)],
	}
	switch b[3] % 3 {
	case 1:
		p.rel.BlindRetry = true
	case 2:
		p.rel.NoRetry = true
	}
	p.rel.MaxAttempts = 1 + int(b[3]/3)%8
	p.rel.setDefaults()
	return p, true
}

// countingSampler counts the rate samples drawn through it.
type countingSampler struct {
	Sampler
	draws int
}

func (s *countingSampler) Sample(st *stats.Stream) float64 {
	s.draws++
	return s.Sampler.Sample(st)
}

// ledger is a Counts that keeps every counter.
type ledger [metrics.NumCounters]int

func (l *ledger) Count(id metrics.Counter, n int) { l[id] += n }

// wireFrame is one frame as the harness put it on the wire (its message
// is the entry numbered seq).
type wireFrame struct {
	seq, base uint64
	epoch     uint32
	drop      bool
}

// linkRun drives one link, sender to receiver, through a program; cut 0
// is the simulator's burst shape (one entry, plus the successor a
// reorder owes), cut k the live sender's (up to k entries, plus an owed
// successor).
type linkRun struct {
	t        *testing.T
	cut      int
	send     LinkSend
	recv     LinkRecv
	sampler  *countingSampler
	counts   ledger
	now      vtime.Millis
	epoch    uint32 // the sender incarnation's; the receiver's floor
	nextID   msg.ID
	queue    []*core.Entry
	wire     []wireFrame // written, not yet received
	sent     []wireFrame // every frame ever written
	frames   int         // Σ attempts + duplicates over every chain
	expected map[uint64]bool
	handed   []uint64
	dups     int
	stale    int
	accepted int
	out      []*msg.Message
}

func newLinkRun(t *testing.T, p linkProgram, cut int) *linkRun {
	belief := stats.Normal{Mean: 10, Sigma: 3}
	r := &linkRun{
		t:        t,
		cut:      cut,
		sampler:  &countingSampler{Sampler: NewSampler(LinkNormal, belief, 1)},
		expected: make(map[uint64]bool),
	}
	r.send = NewLinkSend(0, 1, LinkSpec{
		Sampler: r.sampler,
		Stream:  stats.DeriveN(1, "fuzz/link", 0),
		Loss:    NewLossModel(1, 0, p.loss),
		Retry:   NewRetryPolicy(p.rel, belief, 1),
	}, nil)
	r.recv = NewLinkRecv(p.window, &r.counts)
	return r
}

func (r *linkRun) enqueue(k int, arg byte) {
	for i := 0; i < k; i++ {
		r.nextID++
		r.queue = append(r.queue, &core.Entry{
			MsgID: uint64(r.nextID), SizeKB: 1, Data: &msg.Message{ID: r.nextID},
			Targets: []core.Target{{
				SubID: 1, Price: 1, Hops: 1 + int(arg)%3,
				Deadline: r.now + 1 + vtime.Millis(arg)*8,
				Rate:     stats.Normal{Mean: 10, Sigma: 3},
			}},
		})
	}
}

func (r *linkRun) pop() *core.Entry {
	e := r.queue[0]
	r.queue = r.queue[1:]
	return e
}

// drain empties the queue in bursts of the run's shape.
func (r *linkRun) drain() {
	for len(r.queue) > 0 {
		var kb float64
		if r.cut == 0 {
			var swap bool
			_, kb, swap = r.send.Resolve(r.pop(), r.now)
			if swap && len(r.queue) > 0 {
				_, kb, _ = r.send.Resolve(r.pop(), r.now)
			}
		} else {
			for {
				var swap bool
				_, kb, swap = r.send.Resolve(r.pop(), r.now)
				if !(swap || r.send.Len() < r.cut) || len(r.queue) == 0 {
					break
				}
				if r.send.Len() == r.cut+1 {
					r.t.Fatalf("a burst at its cap of %d plus the owed successor still owes a reorder", r.cut)
				}
			}
		}
		r.write(r.send.Order(), kb)
	}
}

// write puts one ordered burst on the wire: every lost attempt as a drop,
// the delivering copy and its duplicate as data.
func (r *linkRun) write(chains []Chain, kb float64) {
	r.send.Account(&r.counts)
	frames := 0
	for i := range chains {
		c := &chains[i]
		if c.Seq != uint64(c.M.ID) {
			r.t.Fatalf("entry %d resolved as sequence %d: sequences follow send order", c.M.ID, c.Seq)
		}
		n := c.Out.Attempts
		if c.Out.Dup {
			n++
		}
		r.frames += n
		frames += c.Frames()
		for k := 0; k < c.Frames(); k++ {
			f := wireFrame{seq: c.Seq, base: c.Base, epoch: r.epoch, drop: k < c.Drops()}
			r.wire = append(r.wire, f)
			r.sent = append(r.sent, f)
		}
	}
	if kb != float64(frames) {
		r.t.Fatalf("burst of %d frames of 1 KB reported %v KB on the wire", frames, kb)
	}
}

// receive hands up to k frames off the wire to the receiving half.
func (r *linkRun) receive(k int) {
	for ; k > 0 && len(r.wire) > 0; k-- {
		f := r.wire[0]
		r.wire = r.wire[1:]
		if f.drop {
			continue
		}
		if r.recv.Stale(f.epoch, r.epoch) {
			r.stale++
			continue
		}
		r.accepted++
		r.expected[f.seq] = true
		var dup bool
		r.out, dup = r.recv.Accept(f.seq, f.base, &msg.Message{ID: msg.ID(f.seq)}, r.out[:0])
		if dup {
			r.dups++
		}
		for _, m := range r.out {
			r.handed = append(r.handed, uint64(m.ID))
		}
	}
}

func (r *linkRun) run(ops []byte) {
	for _, b := range ops {
		arg := b >> 2
		switch b & 3 {
		case 0:
			r.enqueue(1+int(arg)%8, arg)
			r.drain()
		case 1:
			r.receive(1 + int(arg))
		case 2:
			r.epoch++
		case 3:
			r.now += vtime.Millis(arg) * 10
		}
	}
	// The final burst leaves after the adversary's window: clean, it
	// tells the receiver to stop waiting for whatever the program lost.
	r.receive(len(r.wire))
	r.now = lossEnd
	r.enqueue(1, 63)
	r.drain()
	r.receive(len(r.wire))
}

// check holds one run to the link's promises.
func (r *linkRun) check() {
	t := r.t
	for i := 1; i < len(r.handed); i++ {
		if r.handed[i] <= r.handed[i-1] {
			t.Fatalf("handed up %d after %d: not exactly once in increasing order (%v)", r.handed[i], r.handed[i-1], r.handed)
		}
	}
	for _, s := range r.handed {
		if !r.expected[s] {
			t.Fatalf("handed up %d, which never arrived clean", s)
		}
	}
	if len(r.handed) != len(r.expected) {
		t.Fatalf("%d sequences arrived clean, %d handed up: %v", len(r.expected), len(r.handed), r.handed)
	}
	if p := r.recv.Pending(); p != 0 {
		t.Fatalf("%d frames still parked after the final burst", p)
	}
	if len(r.sent) != r.frames {
		t.Fatalf("%d frames on the wire, Σ attempts + duplicates = %d", len(r.sent), r.frames)
	}
	if r.sampler.draws != len(r.sent) {
		t.Fatalf("%d rate samples for %d frames on the wire", r.sampler.draws, len(r.sent))
	}
	c := &r.counts
	if c[metrics.FramesLost] != c[metrics.Retransmits]+c[metrics.DroppedDeadline] {
		t.Fatalf("lost %d ≠ retransmitted %d + abandoned %d",
			c[metrics.FramesLost], c[metrics.Retransmits], c[metrics.DroppedDeadline])
	}
	if c[metrics.StaleEpochFrames] != r.stale || c[metrics.DupsSuppressed] != r.dups {
		t.Fatalf("counted %d stale, %d duplicates; saw %d, %d",
			c[metrics.StaleEpochFrames], c[metrics.DupsSuppressed], r.stale, r.dups)
	}
	if r.accepted != len(r.handed)+r.dups {
		t.Fatalf("%d frames accepted, %d handed up + %d duplicates", r.accepted, len(r.handed), r.dups)
	}
}

// FuzzLink drives the two halves of one link (LinkSend → LinkRecv)
// through byte programs of adversaries, retry policies, burst cuts,
// sender rebirths and reorder windows, in the simulator's burst shape and
// the live sender's, and holds each run to the link's promises: every
// sequence that arrived clean is handed up exactly once, in increasing
// order; nothing is left parked once a clean frame follows; the wire
// carries Σ attempts + duplicates frames and one rate sample each; every
// loss is a retransmission or an abandoned frame. The two shapes put the
// same frames on the wire and hand up the same sequence.
func FuzzLink(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 0, 0, 0, 0x1c, 0xfd},                                     // clean
		{0, 0, 255, 0, 0, 0, 0x14, 0xfd},                                   // every chain reordered, live cap 1
		{0, 0, 255, 0, 31, 0, 0x1c, 0x1c, 0xfd},                            // reordered, cap 8
		{120, 60, 80, 21, 2, 3, 0x1c, 0x05, 0x02, 0x7c, 0xfd, 0x1f, 0x1c},  // loss, dup, reorder, rebirth
		{200, 0, 0, 2, 1, 0, 0x1c, 0x3f, 0x1c},                             // heavy loss, retry off
		{180, 100, 128, 1, 3, 1, 0x1c, 0x01, 0x06, 0x1c, 0x09, 0x02, 0x1c}, // blind retry, rebirth mid-burst
		// A rebirth strands a reordered frame parked behind its stale
		// predecessor; the next clean base must release it.
		[]byte("0000000000A2"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, ok := decodeLinkProgram(b)
		if !ok {
			return
		}
		sim, live := newLinkRun(t, p, 0), newLinkRun(t, p, p.cut)
		sim.run(p.ops)
		live.run(p.ops)
		sim.check()
		live.check()
		if !slices.Equal(sim.sent, live.sent) {
			t.Fatalf("the shapes put different frames on the wire:\nsim  %v\nlive %v", sim.sent, live.sent)
		}
		if !slices.Equal(sim.handed, live.handed) {
			t.Fatalf("the shapes handed up different sequences:\nsim  %v\nlive %v", sim.handed, live.handed)
		}
		if sim.counts != live.counts {
			t.Fatalf("the shapes counted differently:\nsim  %v\nlive %v", sim.counts, live.counts)
		}
	})
}
