package runtime

import (
	"bdps/internal/durable"
	"bdps/internal/msg"
	"bdps/internal/routing"
	"bdps/internal/stats"
)

// This file is the backend-shared half of crash-restart durability: the
// conversion between a broker's live routing table and the durable
// entries its write-ahead log holds, and the warm-rejoin reconstruction
// of a restarted broker from them (RecoverTable inside Plan.NewBroker).
// Both backends log the deployed table, then every subscription a broker
// admits or retracts while up — the live overlay in internal/durable's
// file store, the simulator in memory: one durable-state model, two
// media, so the recovery ledger (entries replayed, sessions resumed,
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

// RecoverTable rebuilds broker id's routing table from the durable
// entries its write-ahead log recovered, in log order, and returns it
// with the set of subscriptions it holds; the set's size is the
// RestartReplayedSubs ledger entry.
func RecoverTable(id msg.NodeID, entries []durable.Entry) (*routing.Table, map[msg.SubID]bool) {
	t := routing.NewTable(id)
	subs := make(map[msg.SubID]bool, len(entries))
	for i := range entries {
		t.Add(RoutingEntry(&entries[i]))
		subs[entries[i].Sub.ID] = true
	}
	return t, subs
}

// RestartBroker replaces broker id with a fresh incarnation recovered
// from the given durable entries — NewBroker around RecoverTable's table,
// empty queues — swapped into the plan, and returns the number of
// distinct subscriptions reinstalled. The simulator calls it, then the
// repair engine's BrokerRestarted; a live node builds the same broker
// and the transport swaps it in under the repair engine's lock.
func (p *Plan) RestartBroker(id msg.NodeID, entries []durable.Entry) (int, error) {
	t, subs := RecoverTable(id, entries)
	b, err := p.NewBroker(id, t)
	if err != nil {
		return 0, err
	}
	p.Tables[id] = t
	p.Brokers[id] = b
	return len(subs), nil
}
