package metrics

// The ledger: every count a run produces, declared once. A counter is
// one Counter id, one Ledger field and one Counters row, in the same
// position in all three; both backends increment by id on a Collector
// (the simulator the plan's, each live node its own) and everything
// that copies, sums, averages or exports counters loops over Counters.
//
// Adding a counter:
//  1. add its id to the const block, before NumCounters;
//  2. add the Ledger field at the same position;
//  3. add the Counters row (exported name, help text, field accessor).
//
// TestCountersCoverLedger fails when the three fall out of step. The
// new counter then appears in Result, Mean, livenet.Stats, TotalStats
// and /metrics (as bdps_<name>_total) without another line.

// Counter identifies one ledger counter.
type Counter uint8

const (
	Published Counter = iota
	TotalTargets
	Receptions
	ValidDeliveries
	LateDeliveries
	DropsExpired
	DropsHopeless
	DropsArrival
	DropsCrashed
	Duplicates
	Detections
	ReroutedPaths
	BoundsKept
	BoundsRelaxed
	BoundsRejected
	RefloodedSubs
	FramesLost
	Retransmits
	DupsSuppressed
	ReorderedHealed
	DroppedDeadline
	FloodsSuppressed
	AggregatedEntries
	PubsAdmitted
	PubsRelaxed
	PubsRejected
	SubsRejected
	DropsShed
	RestartReplayedSubs
	SessionsResumed
	ReplayedMsgs
	StaleEpochFrames
	NumCounters
)

// Ledger holds one value per counter, as named fields (metrics.Result
// and livenet.Stats embed it).
type Ledger struct {
	Published    int
	TotalTargets int // Σ tsᵢ: interested subscribers over published messages
	Receptions   int // the paper's "message number"

	ValidDeliveries int // Σ dsᵢ
	LateDeliveries  int

	DropsExpired  int
	DropsHopeless int
	DropsArrival  int
	DropsCrashed  int
	// Duplicates counts the multipath copies a broker's dedup set
	// discarded, on both backends (runtime.Charge.Result); it stays zero
	// on single-path runs.
	Duplicates int

	// Recovery counters (self-healing control plane); all zero on runs
	// without failure detection.
	Detections     int
	ReroutedPaths  int
	BoundsKept     int
	BoundsRelaxed  int
	BoundsRejected int
	RefloodedSubs  int

	// Reliable-channel counters (lossy-network resilience); all zero on
	// runs without an injected link adversary.
	FramesLost      int
	Retransmits     int
	DupsSuppressed  int
	ReorderedHealed int
	DroppedDeadline int

	// Covering-aggregation counters; all zero on runs without
	// aggregation.
	FloodsSuppressed  int
	AggregatedEntries int

	// SLO ledger (overload protection); all zero on runs without
	// admission control or shedding. Published and TotalTargets count
	// only admitted traffic: offered load = Published + PubsRejected.
	PubsAdmitted int
	PubsRelaxed  int
	PubsRejected int
	SubsRejected int
	DropsShed    int

	// Crash-restart recovery ledger (durable broker state + warm rejoin
	// + session resumption); all zero on runs without broker restarts.
	RestartReplayedSubs int
	SessionsResumed     int
	ReplayedMsgs        int
	StaleEpochFrames    int
}

// CounterInfo is one row of the ledger table.
type CounterInfo struct {
	Name  string // snake_case; exported as bdps_<Name>_total
	Help  string
	Field func(*Ledger) *int
}

// Counters is the ledger table, indexed by Counter.
var Counters = [NumCounters]CounterInfo{
	Published:       {"published", "Publications injected (admitted traffic only).", func(l *Ledger) *int { return &l.Published }},
	TotalTargets:    {"targets", "Interested subscribers summed over published messages.", func(l *Ledger) *int { return &l.TotalTargets }},
	Receptions:      {"receptions", "Messages received by brokers.", func(l *Ledger) *int { return &l.Receptions }},
	ValidDeliveries: {"deliveries_valid", "Deliveries within their delay bound.", func(l *Ledger) *int { return &l.ValidDeliveries }},
	LateDeliveries:  {"deliveries_late", "Deliveries past their delay bound.", func(l *Ledger) *int { return &l.LateDeliveries }},
	DropsExpired:    {"drops_expired", "Queue entries dropped past their deadline.", func(l *Ledger) *int { return &l.DropsExpired }},
	DropsHopeless:   {"drops_hopeless", "Queue entries dropped as unmeetable.", func(l *Ledger) *int { return &l.DropsHopeless }},
	DropsArrival:    {"drops_arrival", "Messages dropped on arrival.", func(l *Ledger) *int { return &l.DropsArrival }},
	DropsCrashed:    {"drops_crashed", "Messages lost to broker crashes.", func(l *Ledger) *int { return &l.DropsCrashed }},
	Duplicates:      {"duplicates", "Duplicate receptions suppressed.", func(l *Ledger) *int { return &l.Duplicates }},

	Detections:     {"detections", "Confirmed failure detections (per dead arc).", func(l *Ledger) *int { return &l.Detections }},
	ReroutedPaths:  {"rerouted_paths", "(ingress, subscription) pairs repair moved to a new path.", func(l *Ledger) *int { return &l.ReroutedPaths }},
	BoundsKept:     {"bounds_kept", "Renegotiations whose old bound stayed feasible.", func(l *Ledger) *int { return &l.BoundsKept }},
	BoundsRelaxed:  {"bounds_relaxed", "Renegotiations relaxed to the cheapest feasible bound.", func(l *Ledger) *int { return &l.BoundsRelaxed }},
	BoundsRejected: {"bounds_rejected", "Renegotiations with no feasible bound on any surviving path.", func(l *Ledger) *int { return &l.BoundsRejected }},
	RefloodedSubs:  {"reflooded_subs", "Subscriptions re-flooded onto surviving routes.", func(l *Ledger) *int { return &l.RefloodedSubs }},

	FramesLost:      {"frames_lost", "Wire frames lost to the injected adversary.", func(l *Ledger) *int { return &l.FramesLost }},
	Retransmits:     {"retransmits", "Frames retransmitted by the reliable channel.", func(l *Ledger) *int { return &l.Retransmits }},
	DupsSuppressed:  {"dups_suppressed", "Duplicate frames discarded by per-link dedup.", func(l *Ledger) *int { return &l.DupsSuppressed }},
	ReorderedHealed: {"reordered_healed", "Out-of-order frames restored to FIFO order.", func(l *Ledger) *int { return &l.ReorderedHealed }},
	DroppedDeadline: {"dropped_deadline", "Retransmissions and replays abandoned: remaining slack too small.", func(l *Ledger) *int { return &l.DroppedDeadline }},

	FloodsSuppressed:  {"floods_suppressed", "Subscribe floods covered by aggregation.", func(l *Ledger) *int { return &l.FloodsSuppressed }},
	AggregatedEntries: {"aggregated_entries", "Routing entries standing for more than one subscription (set by the run driver at end of run).", func(l *Ledger) *int { return &l.AggregatedEntries }},

	PubsAdmitted: {"pubs_admitted", "Publications admitted with their bound intact.", func(l *Ledger) *int { return &l.PubsAdmitted }},
	PubsRelaxed:  {"pubs_relaxed", "Publications admitted under a relaxed bound.", func(l *Ledger) *int { return &l.PubsRelaxed }},
	PubsRejected: {"pubs_rejected", "Publications rejected by admission control.", func(l *Ledger) *int { return &l.PubsRejected }},
	SubsRejected: {"subs_rejected", "Subscription floods refused by admission control.", func(l *Ledger) *int { return &l.SubsRejected }},
	DropsShed:    {"drops_shed", "Queue entries shed under pressure (worst first).", func(l *Ledger) *int { return &l.DropsShed }},

	RestartReplayedSubs: {"restart_replayed_subs", "Routing entries a restarted broker reinstalled from its log.", func(l *Ledger) *int { return &l.RestartReplayedSubs }},
	SessionsResumed:     {"sessions_resumed", "Subscriber sessions reattached via resume token.", func(l *Ledger) *int { return &l.SessionsResumed }},
	ReplayedMsgs:        {"replayed_msgs", "Retained deliveries replayed to resumed sessions.", func(l *Ledger) *int { return &l.ReplayedMsgs }},
	StaleEpochFrames:    {"stale_epoch_frames", "Data frames rejected as a dead incarnation's.", func(l *Ledger) *int { return &l.StaleEpochFrames }},
}
