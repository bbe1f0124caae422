package runtime

import (
	"bdps/internal/broker"
	"bdps/internal/durable"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
)

// This file is the backend-shared half of crash-restart durability: the
// conversion between a broker's live routing table and the durable
// entries its write-ahead log holds, and the warm-rejoin reconstruction
// of a restarted broker from those entries. The live overlay persists
// the entries through internal/durable's real file store; the simulator
// keeps the same entries in memory — one durable-state model, two
// media — so the recovery ledger (entries replayed, sessions resumed,
// stale frames rejected) is comparable across backends exactly.

// SessionRingLimit bounds every backend's per-session replay ring:
// deliveries retained for a disconnected subscriber beyond the newest
// SessionRingLimit are gone for good — the bounded give-up any real
// durable subscription has.
const SessionRingLimit = 256

// SnapshotDurable extracts broker id's current routing state as the
// durable entries its WAL would hold — what a deploy-time checkpoint
// writes on the live overlay. Entries are deep value copies: later
// repairs mutating the live table cannot reach back into the snapshot,
// exactly as bytes on disk are beyond a crashing process.
func (p *Plan) SnapshotDurable(id msg.NodeID) []durable.Entry {
	t := p.Tables[id]
	if t == nil {
		return nil
	}
	var out []durable.Entry
	for _, src := range t.Sources() {
		for _, e := range t.Entries(src) {
			out = append(out, DurableEntry(e))
		}
	}
	return out
}

// DurableEntry is the write-ahead-log record of one routing entry: a
// value copy, so later table mutations cannot reach it.
func DurableEntry(e *routing.Entry) durable.Entry {
	return durable.Entry{
		Sub: e.Sub, Source: e.Source, Next: e.Next,
		Hops: e.Hops, PathID: e.PathID,
		RateMean: e.Rate.Mean, RateSigma: e.Rate.Sigma,
		Relaxed: e.Relaxed,
	}
}

// RoutingEntry rebuilds the routing entry a write-ahead-log record holds.
func RoutingEntry(e *durable.Entry) *routing.Entry {
	return &routing.Entry{
		Sub: e.Sub, Source: e.Source, Next: e.Next,
		Hops: e.Hops, PathID: e.PathID,
		Rate:    stats.Normal{Mean: e.RateMean, Sigma: e.RateSigma},
		Relaxed: e.Relaxed,
	}
}

// RestartBroker replaces broker id with a fresh incarnation recovered
// from the given durable entries: a new routing table holding exactly
// the WAL state, a new broker instance around it (empty queues — the
// crash took whatever was in flight), both swapped into the plan so
// matchers, links and the repair engine all see the rejoined node. It
// returns the number of distinct subscriptions reinstalled — the
// RestartReplayedSubs ledger entry. Callers invoke the repair engine's
// BrokerRestarted afterwards to withdraw the crash evidence and move
// routes back.
func (p *Plan) RestartBroker(id msg.NodeID, entries []durable.Entry) (int, error) {
	t := routing.NewTable(id)
	subs := make(map[msg.SubID]bool, len(entries))
	for i := range entries {
		t.Add(RoutingEntry(&entries[i]))
		subs[entries[i].Sub.ID] = true
	}
	means := make(map[msg.NodeID]float64)
	for _, e := range p.Overlay.Graph.Neighbors(id) {
		means[e.To] = p.Beliefs(id, e.To).Mean
	}
	pressure := 0
	if p.Cfg.Admission.Shed {
		pressure = p.Cfg.Admission.MaxQueue
	}
	b, err := broker.New(broker.Config{
		ID:        id,
		Scenario:  p.Cfg.Scenario,
		Params:    p.Cfg.Params,
		Strategy:  p.Cfg.Strategy,
		Table:     t,
		LinkMeans: means,
		Dedup:     p.Cfg.Multipath > 1,
		Pressure:  pressure,
	})
	if err != nil {
		return 0, err
	}
	p.Tables[id] = t
	p.Brokers[id] = b
	return len(subs), nil
}
