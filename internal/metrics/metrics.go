// Package metrics collects and reports the evaluation metrics of §6.1:
// delivery rate (eq. 1), total earning (eq. 2) and message number (total
// broker receptions, the network-traffic proxy), plus the drop taxonomy
// and latency distributions this reimplementation adds for diagnosis,
// all in one lock-free, mergeable ledger type: Collector.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"

	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// Collector accumulates one run's metrics, or one writer's share of
// them. Count, DeliveredAt and Detection are safe for concurrent
// writers and take no lock; Merge adds one collector into another. The
// run driver's methods — EnableTimeline, EnablePerSubscriber,
// PublishedAt, PublishedToAt, the Pub* bound ledger and
// AggregatedEntries — are single-writer: call them from one goroutine,
// before or after the concurrent writers run.
type Collector struct {
	counts  [NumCounters]atomic.Int64
	earning stats.AtomicFloat
	latency stats.Histogram // valid deliveries only, ms

	// detectionMs sums fault → confirmed-detection latencies; the
	// Detections counter is their count.
	detectionMs stats.AtomicFloat
	boundLedger map[int]*BoundAdmissions

	// Delivery timeline: targets and valid deliveries bucketed by the
	// message's publication instant (enabled by EnableTimeline); tlLen
	// is how many buckets publications reached.
	timelineBucket vtime.Millis
	tlLen          int
	tlTargets      []int
	tlValid        []atomic.Int64

	// Per-subscriber accounting for fairness analysis, indexed by
	// subscription id (enabled by EnablePerSubscriber).
	subExpected []int
	subValid    []atomic.Int64
}

// Count adds n to one ledger counter — the entry point for every count
// that is only a count (see Counters for the list).
func (c *Collector) Count(id Counter, n int) { c.counts[id].Add(int64(n)) }

// EnableTimeline arms publication-time bucketing of targets and valid
// deliveries with the given bucket width over publication instants in
// [0, span] — the delivery-rate-over-time view the recovery experiments
// plot. Call before any accounting.
func (c *Collector) EnableTimeline(bucket, span vtime.Millis) {
	if bucket > 0 {
		c.timelineBucket = bucket
		n := int(span/bucket) + 1
		c.tlTargets, c.tlValid = make([]int, n), make([]atomic.Int64, n)
	}
}

// EnablePerSubscriber arms per-subscriber accounting for subscription
// ids in [0, n); others go untallied. Call before any accounting.
func (c *Collector) EnablePerSubscriber(n int) {
	c.subExpected, c.subValid = make([]int, n), make([]atomic.Int64, n)
}

// Blank returns an empty collector with c's timeline and subscriber
// space, for a writer whose counts are merged into c later.
func (c *Collector) Blank() *Collector {
	b := &Collector{timelineBucket: c.timelineBucket}
	b.tlTargets, b.tlValid = make([]int, len(c.tlTargets)), make([]atomic.Int64, len(c.tlValid))
	b.EnablePerSubscriber(len(c.subValid))
	return b
}

// bucketAt returns the timeline bucket of a publication instant, or -1
// when the timeline is off or the instant lies outside it.
func (c *Collector) bucketAt(published vtime.Millis) int {
	if c.timelineBucket <= 0 || published < 0 {
		return -1
	}
	if i := int(published / c.timelineBucket); i < len(c.tlValid) {
		return i
	}
	return -1
}

// PublishedAt records a published message, its interested-subscriber
// count tsᵢ and its publication instant (which feeds the delivery
// timeline when one is enabled).
func (c *Collector) PublishedAt(interested int, at vtime.Millis) {
	c.counts[Published].Add(1)
	c.counts[TotalTargets].Add(int64(interested))
	if i := c.bucketAt(at); i >= 0 {
		c.tlTargets[i] += interested
		c.tlLen = max(c.tlLen, i+1)
	}
}

// PublishedToAt is PublishedAt that additionally attributes the
// expectation to each interested subscriber for fairness accounting.
func (c *Collector) PublishedToAt(interested []int32, at vtime.Millis) {
	c.PublishedAt(len(interested), at)
	for _, id := range interested {
		if int(id) < len(c.subExpected) {
			c.subExpected[id]++
		}
	}
}

// DeliveredAt records a delivery to one subscriber. Valid deliveries add
// price to the earning, the latency sample, the delivery timeline
// bucket of the message's publication instant (published < 0 skips the
// bucketing) and the subscriber's fairness tally (subID < 0 skips it).
func (c *Collector) DeliveredAt(subID int32, price float64, published, latency vtime.Millis, valid bool) {
	if !valid {
		c.counts[LateDeliveries].Add(1)
		return
	}
	c.counts[ValidDeliveries].Add(1)
	c.earning.Add(price)
	c.latency.Add(latency)
	if i := c.bucketAt(published); i >= 0 {
		c.tlValid[i].Add(1)
	}
	if subID >= 0 && int(subID) < len(c.subValid) {
		c.subValid[subID].Add(1)
	}
}

// Detection records one confirmed failure detection (one dead directed
// arc) and its detection latency: fault instant → confirmed-dead.
func (c *Collector) Detection(latency vtime.Millis) {
	c.counts[Detections].Add(1)
	c.detectionMs.Add(latency)
}

// Merge adds into c all that o's concurrent writers recorded (not o's
// driver-only accounting); o must have c's shape, as c.Blank() does.
func (c *Collector) Merge(o *Collector) {
	for id := range o.counts {
		c.counts[id].Add(o.counts[id].Load())
	}
	c.earning.Add(o.earning.Load())
	c.latency.Merge(&o.latency)
	c.detectionMs.Add(o.detectionMs.Load())
	for i := range o.tlValid {
		c.tlValid[i].Add(o.tlValid[i].Load())
	}
	for i := range o.subValid {
		c.subValid[i].Add(o.subValid[i].Load())
	}
}

// Latency returns the histogram of valid deliveries' latencies, in ms.
func (c *Collector) Latency() *stats.Histogram { return &c.latency }

// Ledger returns a snapshot of the counters.
func (c *Collector) Ledger() Ledger {
	var l Ledger
	for id, info := range Counters {
		*info.Field(&l) = int(c.counts[id].Load())
	}
	return l
}

// boundAt returns the admission ledger bucket of an applicable bound,
// quantized to whole seconds: PSD bounds are continuous, so
// per-exact-bound counting would make the ledger one entry per
// publication.
func (c *Collector) boundAt(bound vtime.Millis) *BoundAdmissions {
	if c.boundLedger == nil {
		c.boundLedger = make(map[int]*BoundAdmissions)
	}
	return admissionsAt(c.boundLedger, int(bound/vtime.Second+0.5))
}

func admissionsAt(ledger map[int]*BoundAdmissions, sec int) *BoundAdmissions {
	b := ledger[sec]
	if b == nil {
		b = &BoundAdmissions{BoundSec: sec}
		ledger[sec] = b
	}
	return b
}

// sortedBounds lists a bound ledger by bound (nil when it is empty).
func sortedBounds(ledger map[int]*BoundAdmissions) []BoundAdmissions {
	if len(ledger) == 0 {
		return nil
	}
	out := make([]BoundAdmissions, 0, len(ledger))
	for _, b := range ledger {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BoundSec < out[j].BoundSec })
	return out
}

// PubAdmitted records a publication that passed admission with its
// bound intact.
func (c *Collector) PubAdmitted(bound vtime.Millis) {
	c.counts[PubsAdmitted].Add(1)
	c.boundAt(bound).Admitted++
}

// PubRelaxed records a publication admitted under a relaxed bound.
func (c *Collector) PubRelaxed(bound vtime.Millis) {
	c.counts[PubsRelaxed].Add(1)
	c.boundAt(bound).Relaxed++
}

// PubRejected records a publication refused at the ingress: no
// admissible bound within the relax cap under the current load.
func (c *Collector) PubRejected(bound vtime.Millis) {
	c.counts[PubsRejected].Add(1)
	c.boundAt(bound).Rejected++
}

// AggregatedEntries records the end-of-run count of live routing entries
// standing for more than one subscription (stamped by the run driver
// from a table scan).
func (c *Collector) AggregatedEntries(n int) { c.counts[AggregatedEntries].Store(int64(n)) }

// Result freezes a collector into the run summary.
func (c *Collector) Result() Result {
	r := Result{
		Ledger:      c.Ledger(),
		Earning:     c.earning.Load(),
		Fairness:    c.fairness(),
		BoundLedger: sortedBounds(c.boundLedger),
	}
	if n := c.latency.Count(); n > 0 {
		r.LatencyMeanMs = c.latency.Sum() / float64(n)
		r.LatencyP50Ms = c.latency.Quantile(0.5)
		r.LatencyP95Ms = c.latency.Quantile(0.95)
		r.LatencyMaxMs = c.latency.Max()
	}
	if r.Detections > 0 {
		r.DetectionLatencyMs = c.detectionMs.Load() / float64(r.Detections)
	}
	if c.timelineBucket > 0 {
		r.Timeline = make([]TimeBucket, c.tlLen)
		for i := range r.Timeline {
			r.Timeline[i] = TimeBucket{
				Start:   vtime.Millis(i) * c.timelineBucket,
				Targets: c.tlTargets[i],
				Valid:   int(c.tlValid[i].Load()),
			}
		}
	}
	return r
}

// fairness computes Jain's fairness index over per-subscriber delivery
// ratios xᵢ = validᵢ/expectedᵢ: (Σx)² / (n·Σx²). 1.0 means perfectly even
// service; 1/n means one subscriber got everything. Returns 0 when
// per-subscriber accounting was not enabled or nothing was expected.
func (c *Collector) fairness() float64 {
	var sum, sumSq float64
	n := 0
	for id, exp := range c.subExpected {
		if exp == 0 {
			continue
		}
		x := float64(c.subValid[id].Load()) / float64(exp)
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// Result is the immutable outcome of one run: the ledger counters
// (embedded, so r.Published, r.DropsExpired… read as before) plus what is
// not a count.
type Result struct {
	Label    string // run identification (strategy, scenario, rate…)
	Seed     uint64
	Strategy string
	Scenario string
	Backend  string // which runtime transport carried the run ("sim", "live")

	Ledger

	Earning float64

	// Fairness is Jain's index over per-subscriber delivery ratios, or 0
	// when per-subscriber accounting was off.
	Fairness float64

	LatencyMeanMs float64
	LatencyP50Ms  float64
	LatencyP95Ms  float64
	LatencyMaxMs  float64

	PeakQueue int

	// DetectionLatencyMs is the mean fault → confirmed-detection latency
	// (0 on runs without failure detection).
	DetectionLatencyMs float64

	// BoundLedger breaks the admission decisions down by applicable
	// bound (bucketed to whole seconds), sorted by bound.
	BoundLedger []BoundAdmissions

	// Timeline is the delivery-over-time histogram (publication-time
	// buckets, up to the last one a publication reached); nil unless the
	// run enabled one.
	Timeline []TimeBucket
}

// BoundAdmissions is the admission ledger for one applicable-bound
// bucket (bounds rounded to the nearest second).
type BoundAdmissions struct {
	BoundSec int
	Admitted int
	Relaxed  int
	Rejected int
}

// TimeBucket is one publication-time bucket of the delivery timeline.
type TimeBucket struct {
	Start   vtime.Millis
	Targets int
	Valid   int
}

// Rate is the bucket's delivery rate (0 when nothing was targeted).
func (b TimeBucket) Rate() float64 {
	if b.Targets == 0 {
		return 0
	}
	return float64(b.Valid) / float64(b.Targets)
}

// DeliveryRate is eq. (1): Σ dsᵢ / Σ tsᵢ (0 when nothing was published).
func (r Result) DeliveryRate() float64 {
	if r.TotalTargets == 0 {
		return 0
	}
	return float64(r.ValidDeliveries) / float64(r.TotalTargets)
}

// MessageNumberK is the paper's traffic metric in thousands.
func (r Result) MessageNumberK() float64 { return float64(r.Receptions) / 1000 }

// EarningK is the total earning in thousands.
func (r Result) EarningK() float64 { return r.Earning / 1000 }

// SLOAttainment is the delay-SLO attainment of admitted traffic: valid
// deliveries over the targets of publications that passed admission.
// With admission off every publication is admitted and this equals
// DeliveryRate.
func (r Result) SLOAttainment() float64 { return r.DeliveryRate() }

// RejectRate is the share of offered publications admission refused.
func (r Result) RejectRate() float64 {
	offered := r.Published + r.PubsRejected
	if offered == 0 {
		return 0
	}
	return float64(r.PubsRejected) / float64(offered)
}

// String implements fmt.Stringer with the headline numbers. Runs that
// detected failures append the recovery counters next to the drop
// causes.
func (r Result) String() string {
	s := fmt.Sprintf("%s: delivery %.1f%% earning %.1fk traffic %.1fk (drops exp=%d hopeless=%d arrival=%d)",
		r.Label, 100*r.DeliveryRate(), r.EarningK(), r.MessageNumberK(),
		r.DropsExpired, r.DropsHopeless, r.DropsArrival)
	if r.Detections > 0 {
		s += fmt.Sprintf(" (recovery det=%d lat=%.0fms reroutes=%d kept=%d relaxed=%d rejected=%d reflood=%d)",
			r.Detections, r.DetectionLatencyMs, r.ReroutedPaths,
			r.BoundsKept, r.BoundsRelaxed, r.BoundsRejected, r.RefloodedSubs)
	}
	if r.FramesLost > 0 || r.DupsSuppressed > 0 || r.ReorderedHealed > 0 || r.DroppedDeadline > 0 {
		s += fmt.Sprintf(" (loss lost=%d retx=%d dup=%d reorder=%d deadline=%d)",
			r.FramesLost, r.Retransmits, r.DupsSuppressed, r.ReorderedHealed, r.DroppedDeadline)
	}
	if r.FloodsSuppressed > 0 || r.AggregatedEntries > 0 {
		s += fmt.Sprintf(" (agg floods-suppressed=%d agg-entries=%d)",
			r.FloodsSuppressed, r.AggregatedEntries)
	}
	if r.PubsAdmitted > 0 || r.PubsRejected > 0 || r.SubsRejected > 0 || r.DropsShed > 0 {
		s += fmt.Sprintf(" (slo admitted=%d relaxed=%d rejected=%d subs-rejected=%d shed=%d attain=%.1f%%)",
			r.PubsAdmitted, r.PubsRelaxed, r.PubsRejected, r.SubsRejected, r.DropsShed,
			100*r.SLOAttainment())
	}
	if r.RestartReplayedSubs > 0 || r.SessionsResumed > 0 || r.ReplayedMsgs > 0 || r.StaleEpochFrames > 0 {
		s += fmt.Sprintf(" (restart replayed-subs=%d sessions-resumed=%d replayed-msgs=%d stale-epoch=%d)",
			r.RestartReplayedSubs, r.SessionsResumed, r.ReplayedMsgs, r.StaleEpochFrames)
	}
	return s
}

// Mean averages a set of results (for multi-seed aggregation). Counts are
// averaged as floats and rounded; the label is taken from the first
// result.
func Mean(rs []Result) Result {
	if len(rs) == 0 {
		return Result{}
	}
	out := rs[0]
	n := float64(len(rs))
	round := func(x float64) int { return int(x/n + 0.5) }
	for _, info := range Counters {
		var sum float64
		for i := range rs {
			sum += float64(*info.Field(&rs[i].Ledger))
		}
		*info.Field(&out.Ledger) = round(sum)
	}
	var peak, earn, lm, l50, l95, lmax, fair, detLat float64
	for _, r := range rs {
		peak += float64(r.PeakQueue)
		earn += r.Earning
		lm += r.LatencyMeanMs
		l50 += r.LatencyP50Ms
		l95 += r.LatencyP95Ms
		lmax += r.LatencyMaxMs
		fair += r.Fairness
		detLat += r.DetectionLatencyMs
	}
	out.PeakQueue = round(peak)
	out.Earning = earn / n
	out.Fairness = fair / n
	out.LatencyMeanMs = lm / n
	out.LatencyP50Ms = l50 / n
	out.LatencyP95Ms = l95 / n
	out.LatencyMaxMs = lmax / n
	out.DetectionLatencyMs = detLat / n
	out.BoundLedger = meanBoundLedger(rs)
	out.Timeline = meanTimeline(rs)
	return out
}

// meanBoundLedger merges the per-bound admission ledgers of a result
// set, averaging each bucket over all results (absent buckets count as
// zero), sorted by bound.
func meanBoundLedger(rs []Result) []BoundAdmissions {
	sums := make(map[int]*BoundAdmissions)
	for _, r := range rs {
		for _, b := range r.BoundLedger {
			s := admissionsAt(sums, b.BoundSec)
			s.Admitted += b.Admitted
			s.Relaxed += b.Relaxed
			s.Rejected += b.Rejected
		}
	}
	out := sortedBounds(sums)
	n := float64(len(rs))
	for i := range out {
		b := &out[i]
		b.Admitted = int(float64(b.Admitted)/n + 0.5)
		b.Relaxed = int(float64(b.Relaxed)/n + 0.5)
		b.Rejected = int(float64(b.Rejected)/n + 0.5)
	}
	return out
}

// meanTimeline averages the delivery timelines of a result set bucket by
// bucket (over the results sharing the first result's bucket count; runs
// without a timeline contribute nothing).
func meanTimeline(rs []Result) []TimeBucket {
	width := len(rs[0].Timeline)
	if width == 0 {
		return nil
	}
	tgt, val := make([]float64, width), make([]float64, width)
	matched := 0.0
	for _, r := range rs {
		if len(r.Timeline) != width {
			continue
		}
		matched++
		for i, b := range r.Timeline {
			tgt[i] += float64(b.Targets)
			val[i] += float64(b.Valid)
		}
	}
	out := make([]TimeBucket, width)
	for i := range out {
		out[i] = TimeBucket{
			Start:   rs[0].Timeline[i].Start,
			Targets: int(tgt[i]/matched + 0.5),
			Valid:   int(val[i]/matched + 0.5),
		}
	}
	return out
}
