package livenet

import (
	"sync"

	"bdps/internal/durable"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/runtime"
)

// This file is the node's control path: subscription admission and
// retraction (flooding, covering aggregation, tombstones) and the
// durable record of the routing state they produce (WAL append, recovery
// at start, checkpoints).
//
// A flood costs one frame per overlay link it must cross: each broker
// floods a subscription or its withdrawal once, to every neighbor but the
// one it arrived from. Subscriptions travel with binary filters
// (msg.AppendSubscription), so no broker parses filter text. Control
// frames are framed in each connection's own buffer: a flood a read loop
// relays is queued there and leaves with that loop's idle flush, one
// write per link per batch (datapath.go); one injected through
// Subscribe or Unsubscribe is written at once, behind whatever the link
// has queued.

// tombstoneLimit bounds each tombstone generation. Total tombstone
// memory is at most two generations; a subscribe flood older than the
// last ~2·tombstoneLimit unsubscribes can in principle resurrect a
// subscription — the same eventual-consistency window any bounded
// anti-entropy state has — instead of the set growing without limit
// under a million-user churn soak.
const tombstoneLimit = 1 << 16

// tombstones is a generation-bounded set of unsubscribed ids: inserts go
// to the current generation; when it fills, the previous generation is
// dropped. Membership checks consult both.
type tombstones struct {
	limit     int // generation capacity; defaults to tombstoneLimit
	cur, prev map[msg.SubID]struct{}
}

func (t *tombstones) add(id msg.SubID) {
	if t.limit == 0 {
		t.limit = tombstoneLimit
	}
	if t.cur == nil {
		t.cur = make(map[msg.SubID]struct{})
	}
	if len(t.cur) >= t.limit {
		t.prev = t.cur
		t.cur = make(map[msg.SubID]struct{}, t.limit)
	}
	t.cur[id] = struct{}{}
}

func (t *tombstones) has(id msg.SubID) bool {
	if _, ok := t.cur[id]; ok {
		return true
	}
	_, ok := t.prev[id]
	return ok
}

// len reports the retained tombstone count (both generations).
func (t *tombstones) len() int { return len(t.cur) + len(t.prev) }

// openStore opens the durable store under cfg.StateDir and, when it
// holds recorded state, turns this node into a restarted incarnation:
// epoch = recorded + 1, and the recovered entries become its routing
// table (NewNode).
func (n *Node) openStore() error {
	st, err := durable.Open(n.cfg.StateDir)
	if err != nil {
		return err
	}
	n.store = st
	if st.Empty() {
		return st.SetEpoch(n.cfg.Epoch)
	}
	n.recovered = st.State()
	n.restarted = true
	n.epoch.Store(n.recovered.Epoch + 1)
	return st.SetEpoch(n.epoch.Load())
}

// logSub appends every routing entry the table currently holds for one
// subscription to the WAL (n.mu held), found through the table's
// per-subscription back-references: an admission costs its own entries,
// not a walk of the table. Replayed in log order, each source's entries
// come back in the slot order they had.
func (n *Node) logSub(id msg.SubID) {
	if n.store == nil {
		return
	}
	// Every subscription admitted here encodes (it came off the wire or
	// through Subscribe's check); what can still fail is the write, which,
	// like a crash, costs the record and not the live entry.
	for _, e := range n.table.SubEntries(id, nil) {
		_ = n.store.AppendEntry(runtime.DurableEntry(e))
	}
}

// CheckpointTable snapshots the node's full durable state — epoch,
// every live routing entry and every link's send watermark —
// into the store, truncating the incremental log. No-op without a
// StateDir.
func (n *Node) CheckpointTable() error {
	if n.store == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := durable.State{Epoch: n.epoch.Load(), Marks: make(map[msg.NodeID]uint64)}
	for _, src := range n.table.Sources() {
		for _, e := range n.table.Entries(src) {
			st.Entries = append(st.Entries, runtime.DurableEntry(e))
		}
	}
	for to, ls := range n.linkSenders {
		st.Marks[to] = ls.Mark()
	}
	return n.store.Reset(st)
}

// handleSubscribe installs a subscription (local conn non-nil when the
// subscriber is attached here) and floods it once to every neighbor but
// from, the one it arrived from (msg.None when it did not come over a
// broker link): that neighbor has it already. A flood whose id is seen
// or tombstoned changes nothing and goes no further.
// Pre-installed plan subscriptions only register the local connection.
// With aggregation on, the subscription's edge broker — the one place
// that sees the concrete subscription first — classifies it against the
// resident canonical filters and suppresses the flood when one with
// identical delivery terms already covers it (the covering chain's
// forwarded root carries the upstream traffic). body is the
// subscription's encoding, which the flood relays unchanged: copied into
// each link's control buffer, so the caller may reuse it once this
// returns. w is the read loop the frame arrived on, whose idle flush
// sends the relays (sendCtl); nil writes them at once.
func (n *Node) handleSubscribe(w *worker, s *msg.Subscription, local *peerConn, body []byte, from msg.NodeID) {
	n.mu.Lock()
	if n.removedSubs.has(s.ID) {
		// Tombstoned: a subscribe flood racing its own unsubscribe.
		n.mu.Unlock()
		return
	}
	if n.seenSubs[s.ID] && local == nil {
		n.mu.Unlock()
		return
	}
	first := !n.seenSubs[s.ID]
	n.seenSubs[s.ID] = true
	var sess *session
	if local != nil && s.Edge == n.cfg.ID {
		sess = n.sessionFor(s, local, 0)
	}
	flood := first
	if first {
		if n.agg != nil && s.Edge == n.cfg.ID {
			switch kind, rep := n.agg.Admit(s); kind {
			case routing.AdmitForward:
				n.installRoutes(s)
			case routing.AdmitMember:
				// Exact duplicate: fold into the representative's local
				// entries; delivery fans out to the group's members.
				n.table.Attach(rep.ID, s)
				flood = false
			case routing.AdmitCovered:
				// Properly covered: local delivery entries only (the edge
				// is terminal on every path to it), upstream traffic rides
				// the covering chain's forwarded root.
				n.installRoutes(s)
				n.table.AddRef(rep.ID)
				flood = false
			}
			if !flood {
				n.count(metrics.FloodsSuppressed, 1)
			}
		} else {
			n.installRoutes(s)
		}
		n.logSub(s.ID) // durable admission record (no-op without a store)
	}
	var buf [8]*peerConn
	peers := buf[:0]
	if flood {
		peers = n.floodPeers(peers, from)
	}
	n.mu.Unlock()

	if sess != nil {
		sess.attach(local) // a re-subscribe moves the session to the new connection
	}
	sendCtl(w, peers, msg.FrameSubscribe, body)
}

// sendCtl sends one control frame on each of peers. Relayed by a read
// loop (w non-nil), it is queued on each link for w's idle flush;
// injected from outside one, it is written at once. Either way it
// follows whatever control frames the link already carries. Dead peers
// are fine: a flood to them is lost.
func sendCtl(w *worker, peers []*peerConn, frameType byte, body []byte) {
	for _, p := range peers {
		if w == nil {
			_ = p.writeFrame(frameType, body)
		} else {
			w.queueCtl(p, frameType, body)
		}
	}
}

// floodPeers appends the links a flood that arrived from one neighbor
// leaves on: every neighbor but that one (all of them when from is
// msg.None). Called with n.mu held.
func (n *Node) floodPeers(dst []*peerConn, from msg.NodeID) []*peerConn {
	for to, p := range n.peers {
		if to != from {
			dst = append(dst, p)
		}
	}
	return dst
}

// handleUnsubscribe removes a subscription's routing state and floods the
// removal once to every neighbor but from, the one it arrived from
// (msg.None when it did not come over a broker link), which has
// tombstoned it already. A tombstone prevents resurrection by late
// subscribe floods. With aggregation on, the owning edge broker realizes
// the retraction instead: member/covered departures never flooded so
// they never unsubscribe remotely, and a departing representative first
// floods whatever re-exposes its coverage (promotion hand-off or
// re-exposed representatives) so the peers' coverage stays gapless —
// subscribe frames precede the unsubscribe on every per-peer TCP stream.
// w is the read loop the frame arrived on, as for handleSubscribe.
func (n *Node) handleUnsubscribe(w *worker, id msg.SubID, from msg.NodeID) {
	n.mu.Lock()
	if n.removedSubs.has(id) {
		n.mu.Unlock()
		return
	}
	n.removedSubs.add(id)
	// Forget the flood-dedup entry too: under sustained churn seenSubs
	// would otherwise grow one entry per subscription ever seen.
	delete(n.seenSubs, id)
	delete(n.sessions, id)
	if n.store != nil {
		_ = n.store.RemoveSub(id)
	}

	var pushes [][]byte
	unsubscribe := true
	if n.agg != nil {
		if ret, ok := n.agg.Remove(id); ok {
			unsubscribe = n.retractOwned(id, ret, &pushes)
		} else {
			// Not ours: a remote copy of a forwarded subscription.
			n.table.RemoveSub(id)
		}
	} else {
		n.table.RemoveSub(id)
	}
	// The pushes are subscriptions no neighbor holds yet, so they go to
	// every link, the arrival one included; the unsubscribe skips it.
	var buf, ubuf [8]*peerConn
	peers, upeers := buf[:0], ubuf[:0]
	if len(pushes) > 0 {
		peers = n.floodPeers(peers, msg.None)
	}
	if unsubscribe {
		upeers = n.floodPeers(upeers, from)
	}
	n.mu.Unlock()

	for _, body := range pushes {
		sendCtl(w, peers, msg.FrameSubscribe, body)
	}
	var body [4]byte
	sendCtl(w, upeers, msg.FrameUnsubscribe, msg.AppendUnsubscribe(body[:0], id))
}

// retractOwned realizes an owner-side retraction on the local table and
// appends the subscribe bodies it must flood (promotion hand-off,
// re-exposed representatives) to pushes; they leave on the same links
// as the unsubscribe, ahead of it. It reports whether the
// unsubscribe itself must still flood: only representatives ever
// installed remote state, so member and covered departures stay local.
// Called with n.mu held.
func (n *Node) retractOwned(id msg.SubID, ret routing.Retraction, pushes *[][]byte) bool {
	push := func(s *msg.Subscription) {
		// Admitted at this edge, s has been encoded once already (off the
		// wire or in Subscribe), so this does not fail.
		if body, err := msg.AppendSubscription(nil, s); err == nil {
			*pushes = append(*pushes, body)
		}
	}
	reexpose := func(s *msg.Subscription) {
		switch kind, rep := n.agg.Reexpose(s); kind {
		case routing.AdmitForward:
			// Its local entries survived under the departing coverer;
			// only the peers must install theirs now.
			push(s)
		case routing.AdmitCovered:
			n.table.AddRef(rep.ID)
		}
	}
	switch ret.Kind {
	case routing.RetractMember:
		n.table.Detach(ret.Rep.ID, id)
		return false
	case routing.RetractCovered:
		// Covered canonicals never flooded, so their departure is a
		// purely local affair whatever shape it takes.
		if ret.Promoted != nil {
			// The last exact duplicate inherits the local entries in
			// place (the filter is identical).
			n.table.Promote(id)
			return false
		}
		n.table.RemoveSub(id)
		n.table.DropRef(ret.Rep.ID)
		for _, s := range ret.Reexposed {
			// By transitivity the departing filter's own coverer covers
			// them too, so these normally re-cover without flooding; the
			// cycle guard can still force one to forward.
			reexpose(s)
		}
		return false
	}
	if ret.Promoted != nil {
		// The last exact duplicate inherits the entries in place (the
		// filter is identical); peers swap the entries' identity via the
		// subscribe-then-unsubscribe flood pair.
		n.table.Promote(id)
		push(ret.Promoted)
		return true
	}
	n.table.RemoveSub(id)
	for _, s := range ret.Reexposed {
		reexpose(s)
	}
	return true
}

// Subscribe injects a subscription at this broker exactly as if a
// subscriber client had sent it — routing entries install here and the
// subscription floods across the overlay. The runtime's live churn
// driver uses it to realize a plan's subscribe events at the
// subscription's edge broker. A subscription msg.AppendSubscription
// cannot encode could neither flood nor be logged: Subscribe returns
// that error and installs nothing.
func (n *Node) Subscribe(s *msg.Subscription) error {
	buf := subBodies.Get().(*[]byte)
	defer subBodies.Put(buf)
	body, err := msg.AppendSubscription((*buf)[:0], s)
	if err != nil {
		return err
	}
	*buf = body
	n.handleSubscribe(nil, s, nil, body, msg.None)
	return nil
}

// subBodies recycles Subscribe's encoding scratch: the flood copies the
// body into each link's control buffer, so nothing keeps it once
// handleSubscribe returns.
var subBodies = sync.Pool{New: func() any { return new([]byte) }}

// Unsubscribe injects a subscription withdrawal at this broker: routing
// state is removed, a bounded tombstone guards against late subscribe
// floods, and the removal floods across the overlay.
func (n *Node) Unsubscribe(id msg.SubID) { n.handleUnsubscribe(nil, id, msg.None) }

// installRoutes computes this broker's routing entries for one
// dynamically flooded subscription: for each ingress, the deterministic
// min-mean path — or the K shortest paths when Multipath is on — using
// the same path-entry definition as static routing builds (n.mu held).
// The installer's per-ingress Dijkstra cache makes each flood cost path
// reconstruction, not a shortest-path computation under the write lock.
func (n *Node) installRoutes(s *msg.Subscription) {
	n.installer.InstallAt(n.cfg.ID, n.table, s)
}
