// bdps-loadgen drives an in-process live cluster at maximum rate and
// reports data-plane throughput: msgs/sec end to end (injection through
// cluster quiescence) and allocations per message across the whole
// pipeline, then the run's tail (tail.go): the longest gap between
// completions, p99.9 latency, and the GC pauses and scheduling latencies
// the Go runtime recorded over the measured window. TimeScale ≈ 0 turns the emulated link pacing and processing
// delay off, so the measurement isolates the transport itself — decode,
// match, enqueue, schedule, encode, socket writes.
//
// Fault flags turn the run into a robustness smoke at full rate: crash
// a broker or take a link down mid-measurement with heartbeat failure
// detection on, and the pipeline must drain and report instead of
// wedging. They are bdps-sim's fault flags — the same from:to:start:end
// outage spec — with offsets in wall time from the first publish, and
// the cluster strikes them (livenet.Cluster.ArmFaults):
//
//	bdps-loadgen -n 50000 -kill-broker 1 -kill-at 200ms -heartbeat-interval 50ms
//	bdps-loadgen -n 50000 -link-down 1:2:200ms:400ms -heartbeat-interval 50ms
//
// With -restart-at the killed broker rejoins warm mid-measurement: the
// cluster runs on WAL-backed state, the reborn incarnation replays its
// logged subscription admissions, bumps its epoch, and the surviving
// neighbors re-dial it:
//
//	bdps-loadgen -n 50000 -kill-broker 1 -kill-at 200ms -restart-at 600ms -heartbeat-interval 50ms
//
// Loss flags arm the per-link adversary on every arc — the same
// deterministic loss/dup/reorder model the simulator and the crossval
// tests use. Every link is the same sequenced link with or without them;
// the flags only give it something to heal (retransmission, dedup, FIFO
// restoration inside the reorder window) at full data-plane rate:
//
//	bdps-loadgen -n 50000 -link-loss 0.1 -link-dup 0.02 -link-reorder 0.05
//
// All fault offsets must land inside -duration, the wall-time horizon by
// which the run must quiesce; conflicting flags fail fast at parse time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	grt "runtime"
	"sync"
	"sync/atomic"
	"time"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

func main() {
	var (
		n       = flag.Int("n", 20000, "messages to publish")
		pubs    = flag.Int("pubs", 4, "publishing clients (distinct streams)")
		subs    = flag.Int("subs", 1, "subscribers at the edge broker")
		brokers = flag.Int("brokers", 3, "chain length (ingress → … → edge)")
		burst   = flag.Int("burst", 0, "cap on an unpaced egress burst, in messages; paced links cut bursts by transfer time first (0 = default 32)")
		sizeKB  = flag.Float64("size", 1, "emulated message size in KB")
		payload = flag.Int("payload", 0, "payload bytes per message")
		churn   = flag.Float64("churn", 0, "subscription churn: subscribe+unsubscribe flood pairs per second, sustained while publishing (0 = none)")
		agg     = flag.Bool("aggregate", false, "covering-based subscription aggregation: churn subscriptions covered by a resident filter stop flooding the overlay")

		killBroker = flag.Int("kill-broker", -1, "crash this broker mid-measurement (-1 = no fault)")
		killAt     = flag.Duration("kill-at", 200*time.Millisecond, "wall time after the first publish at which -kill-broker strikes")
		restartAt  = flag.Duration("restart-at", 0, "wall time after the first publish at which the killed broker rejoins warm from its WAL (0 = stays down; requires -kill-broker)")
		linkDown   = flag.String("link-down", "", "transient link outage from:to:start:end in wall time, e.g. 1:2:200ms:400ms")
		hbInterval = flag.Duration("heartbeat-interval", 0, "wall-time heartbeat period for failure detection (0 = off unless a fault is injected, then 100ms)")
		hbTimeout  = flag.Duration("heartbeat-timeout", 0, "wall-time silence before a link is declared dead (0 = 4x interval)")

		linkLoss    = flag.Float64("link-loss", 0, "per-frame loss probability on every link (deterministic adversary)")
		linkDup     = flag.Float64("link-dup", 0, "per-frame duplication probability on every link")
		linkReorder = flag.Float64("link-reorder", 0, "per-frame reorder (adjacent swap) probability on every link; healed inside the receiver's 64-frame reorder window")
		duration    = flag.Duration("duration", 5*time.Minute, "run horizon: the cluster must drain within this wall time, and every fault offset must land inside it")

		flashAt    = flag.Duration("flash-at", 200*time.Millisecond, "flash crowd: wall time after the first publish at which the crowd arrives")
		flashWidth = flag.Duration("flash-width", 500*time.Millisecond, "flash crowd: how long the crowd stays")
		flashPubs  = flag.Int("flash-pubs", 0, "flash crowd: extra publishers blasting at maximum rate for the window (0 = no flash crowd)")
		flashSubs  = flag.Int("flash-subs", 0, "flash crowd: burst subscribers joining at onset and leaving at window end")

		admission = flag.Bool("admission", false, "node-local admission control: the ingress turns publisher frames away while its output queues sit at or above -max-queue")
		shed      = flag.Bool("shed", false, "graceful degradation: brokers shed their worst-scored queue entries above the pressure threshold")
		maxQueue  = flag.Int("max-queue", 0, "admission / pressure threshold in queue entries (0 = default 256)")
		maxEgress = flag.Int("max-egress", 0, "end-to-end backpressure: stall ingress reads while total output-queue occupancy is at or above this (0 = unbounded)")

		metricsAddr = flag.String("metrics", "", "serve GET /metrics (Prometheus text) on this address for the run, e.g. 127.0.0.1:9090")
	)
	flag.Parse()
	cfg := loadCfg{
		n: *n, pubs: *pubs, subs: *subs, brokers: *brokers,
		burst: *burst, sizeKB: *sizeKB, payload: *payload,
		churn: *churn, aggregate: *agg,
		killBroker: *killBroker, killAt: *killAt, restartAt: *restartAt, linkDown: *linkDown,
		hbInterval: *hbInterval, hbTimeout: *hbTimeout,
		linkLoss: *linkLoss, linkDup: *linkDup, linkReorder: *linkReorder,
		duration: *duration,
		flashAt:  *flashAt, flashWidth: *flashWidth,
		flashPubs: *flashPubs, flashSubs: *flashSubs,
		admission: *admission, shed: *shed,
		maxQueue: *maxQueue, maxEgress: *maxEgress,
		metricsAddr: *metricsAddr,
	}
	// Horizon conflicts are flag errors, not drain timeouts: a fault
	// scheduled beyond -duration could never strike before the drain
	// deadline declared the run wedged, so refuse it up front.
	if err := cfg.validateHorizon(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	r, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report(cfg, r)
}

func report(cfg loadCfg, r result) {
	fmt.Printf("%8d msgs in %8.3fs  %9.0f msgs/sec  %6.1f allocs/msg  %8.1f B/msg  (deliveries %d, receptions %d)",
		cfg.n, r.elapsed.Seconds(), r.msgsPerSec, r.allocsPerMsg, r.bytesPerMsg, r.deliveries, r.receptions)
	if cfg.churn > 0 {
		fmt.Printf("  churn %.0f sub+unsub/sec", r.churnPerSec)
	}
	if cfg.faulty() || r.detections > 0 {
		fmt.Printf("  detections %d", r.detections)
		if r.restorations > 0 {
			fmt.Printf(" (%d restored)", r.restorations)
		}
		if r.sendFailed > 0 {
			fmt.Printf("  %d sends lost to crash", r.sendFailed)
		}
		if r.link.DropsCrashed > 0 {
			fmt.Printf("  %d queued or in-flight lost to crash", r.link.DropsCrashed)
		}
	}
	if cfg.restartAt > 0 {
		fmt.Printf("  restart replayed-subs %d  stale-epoch %d", r.link.RestartReplayedSubs, r.link.StaleEpochFrames)
	}
	if cfg.lossy() || r.link.FramesLost > 0 {
		fmt.Printf("  lost %d  retx %d  dup-suppressed %d  reorder-healed %d  abandoned %d",
			r.link.FramesLost, r.link.Retransmits, r.link.DupsSuppressed,
			r.link.ReorderedHealed, r.link.DroppedDeadline)
	}
	if cfg.aggregate {
		fmt.Printf("  floods-suppressed %d  agg-entries %d", r.floodsSuppressed, r.aggEntries)
	}
	if cfg.flashy() {
		fmt.Printf("  flash +%d msgs", r.flashN)
	}
	fmt.Println()
	reportTail(r.tail, r.rtBefore, r.rtAfter)
	if cfg.flashy() || cfg.protected() {
		overloadReport(r)
	}
}

// overloadReport prints the drop-cause breakdown and the per-broker SLO
// attainment table an overload or flash-crowd run is judged by. A
// restarted broker's row counts only its current incarnation; the total
// row sums every incarnation, so after a restart the rows need not add
// up to it.
func overloadReport(r result) {
	t := r.link
	fmt.Printf("drop causes: expired %d  hopeless %d  arrival %d  shed %d  admission-rejected %d\n",
		t.DropsExpired, t.DropsHopeless, t.DropsArrival, t.DropsShed, t.PubsRejected)
	fmt.Println("SLO attainment by broker:")
	fmt.Printf("  %-6s %11s %10s %8s %7s %6s %9s\n",
		"broker", "deliveries", "valid", "attain", "peak-q", "shed", "rejected")
	for _, b := range r.brokers {
		att := 100.0
		if b.stats.Deliveries > 0 {
			att = 100 * float64(b.stats.ValidDeliveries) / float64(b.stats.Deliveries)
		}
		fmt.Printf("  %-6d %11d %10d %7.1f%% %7d %6d %9d\n",
			b.id, b.stats.Deliveries, b.stats.ValidDeliveries, att,
			b.peak, b.stats.DropsShed, b.stats.PubsRejected)
	}
	att := 100.0
	if t.Deliveries > 0 {
		att = 100 * float64(t.ValidDeliveries) / float64(t.Deliveries)
	}
	fmt.Printf("  %-6s %11d %10d %7.1f%%\n", "total", t.Deliveries, t.ValidDeliveries, att)
}

type loadCfg struct {
	n, pubs, subs, brokers int
	burst                  int
	sizeKB                 float64
	payload                int
	churn                  float64
	aggregate              bool

	killBroker            int
	killAt                time.Duration
	restartAt             time.Duration
	linkDown              string
	hbInterval, hbTimeout time.Duration

	linkLoss, linkDup, linkReorder float64
	duration                       time.Duration

	flashAt, flashWidth  time.Duration
	flashPubs, flashSubs int
	admission, shed      bool
	maxQueue, maxEgress  int
	metricsAddr          string
}

// faulty reports whether the run injects a failure mid-measurement.
func (c loadCfg) faulty() bool { return c.killBroker >= 0 || c.linkDown != "" }

// lossy reports whether the per-link adversary is armed.
func (c loadCfg) lossy() bool { return c.linkLoss > 0 || c.linkDup > 0 || c.linkReorder > 0 }

// flashy reports whether a flash crowd strikes mid-measurement.
func (c loadCfg) flashy() bool { return c.flashPubs > 0 || c.flashSubs > 0 }

// protected reports whether any overload defense is armed.
func (c loadCfg) protected() bool { return c.admission || c.shed || c.maxEgress > 0 }

// faults is the run's fault schedule — offsets are wall time from the
// first publish, the scale of the standalone cluster's clock — and the
// offset of its last strike.
func (c loadCfg) faults() ([]runtime.Fault, time.Duration, error) {
	var fs []runtime.Fault
	var last time.Duration
	if c.killBroker >= 0 {
		id := msg.NodeID(c.killBroker)
		fs = append(fs, runtime.BrokerCrash{ID: id, At: vtime.FromDuration(c.killAt)})
		last = c.killAt
		if c.restartAt > 0 {
			fs = append(fs, runtime.BrokerRestart{ID: id, At: vtime.FromDuration(c.restartAt)})
			last = max(last, c.restartAt)
		}
	}
	if c.linkDown != "" {
		ld, err := runtime.ParseLinkDown(c.linkDown)
		if err != nil {
			return nil, 0, fmt.Errorf("-link-down: %w", err)
		}
		fs = append(fs, ld)
		last = max(last, vtime.ToDuration(ld.End))
	}
	return fs, last, nil
}

// validateHorizon rejects fault schedules that cannot complete inside
// the -duration drain horizon, and loss probabilities outside [0,1).
func (c loadCfg) validateHorizon() error {
	if c.duration <= 0 {
		return fmt.Errorf("-duration %v: horizon must be positive", c.duration)
	}
	if c.restartAt > 0 {
		if c.killBroker < 0 {
			return fmt.Errorf("-restart-at needs a crashed broker to restart: pass -kill-broker")
		}
		if c.restartAt <= c.killAt {
			return fmt.Errorf("-restart-at %v must follow -kill-at %v", c.restartAt, c.killAt)
		}
	}
	if _, last, err := c.faults(); err != nil {
		return err
	} else if last >= c.duration {
		return fmt.Errorf("the fault schedule ends at %v, beyond the -duration %v horizon", last, c.duration)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"-link-loss", c.linkLoss}, {"-link-dup", c.linkDup}, {"-link-reorder", c.linkReorder}} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("%s %v: probability must be in [0,1)", p.name, p.v)
		}
	}
	if c.flashPubs < 0 || c.flashSubs < 0 {
		return fmt.Errorf("-flash-pubs %d / -flash-subs %d: crowd sizes must be non-negative", c.flashPubs, c.flashSubs)
	}
	if c.flashy() {
		if c.flashAt < 0 || c.flashWidth <= 0 {
			return fmt.Errorf("-flash-at %v / -flash-width %v: the flash window must sit at a non-negative offset with positive width", c.flashAt, c.flashWidth)
		}
		if c.flashAt+c.flashWidth >= c.duration {
			return fmt.Errorf("flash window ends at %v, beyond the -duration %v horizon", c.flashAt+c.flashWidth, c.duration)
		}
	}
	if c.maxQueue < 0 || c.maxEgress < 0 {
		return fmt.Errorf("-max-queue %d / -max-egress %d: thresholds must be non-negative", c.maxQueue, c.maxEgress)
	}
	return nil
}

type result struct {
	elapsed      time.Duration
	msgsPerSec   float64
	allocsPerMsg float64
	bytesPerMsg  float64
	deliveries   int
	receptions   int
	churnPerSec  float64
	detections   int64
	restorations int64
	sendFailed   int64
	link         livenet.Stats // the cluster's counters (loss and restart accounting)
	flashN       int           // extra publications the flash crowd injected
	brokers      []brokerStat  // per-broker rows for the SLO table

	floodsSuppressed int // subscribe floods aggregation avoided
	aggEntries       int // live entries standing for >1 subscription

	tail              *completions // every delivery, for the tail line
	rtBefore, rtAfter runtimeSnap  // the runtime's histograms around the window
}

// brokerStat is one row of the per-broker SLO attainment table.
type brokerStat struct {
	id    msg.NodeID
	stats livenet.Stats
	peak  int
}

func run(cfg loadCfg) (result, error) {
	if cfg.brokers < 2 {
		return result{}, fmt.Errorf("need at least 2 brokers, got %d", cfg.brokers)
	}
	g := topology.NewGraph(cfg.brokers)
	for i := 0; i < cfg.brokers-1; i++ {
		if err := g.AddLink(msg.NodeID(i), msg.NodeID(i+1), stats.Normal{Mean: 50, Sigma: 5}); err != nil {
			return result{}, err
		}
	}
	faults, lastFault, err := cfg.faults()
	if err != nil {
		return result{}, err
	}

	const timeScale = 1e-9 // pacing off: emulated sleeps round to 0 wall time
	edge := msg.NodeID(cfg.brokers - 1)
	ccfg := livenet.ClusterConfig{
		Overlay:   &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{edge}},
		Scenario:  msg.PSD,
		Strategy:  core.MaxEB{},
		TimeScale: timeScale,
		Seed:      1,
		Burst:     cfg.burst,
		Aggregate: cfg.aggregate,
		MaxEgress: cfg.maxEgress,
		Admission: runtime.Admission{
			Enabled:  cfg.admission,
			Shed:     cfg.shed,
			MaxQueue: cfg.maxQueue,
		},
	}
	if cfg.restartAt > 0 {
		// A restart needs durable state to come back from: give every
		// broker a WAL under a run-scoped directory.
		stateRoot, err := os.MkdirTemp("", "bdps-loadgen-state-")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(stateRoot)
		ccfg.StateRoot = stateRoot
	}
	if cfg.lossy() {
		// One wildcard adversary spec; StartCluster arms an independent,
		// seed-deterministic stream on every arc, exactly as the simulator
		// does for the same config.
		ccfg.LinkLoss = &runtime.LinkLoss{
			From: msg.None, To: msg.None,
			Rate: cfg.linkLoss, Dup: cfg.linkDup, Reorder: cfg.linkReorder,
		}
	}
	// Every delivery is recorded for the tail line.
	tail := newCompletions(cfg.n * max(cfg.subs, 1))
	ccfg.Sink = tail
	// The default cluster clock is the wall clock at scale 1, so the
	// heartbeat durations pass through as plain wall time.
	var detections, restorations atomic.Int64
	hb := cfg.hbInterval
	if hb == 0 && cfg.faulty() {
		hb = 100 * time.Millisecond
	}
	if hb > 0 {
		ccfg.Heartbeat = livenet.HeartbeatConfig{
			Interval: vtime.FromDuration(hb),
			Timeout:  vtime.FromDuration(cfg.hbTimeout),
		}
		ccfg.OnPeerEvent = func(ev livenet.PeerEvent) {
			if ev.Restored {
				restorations.Add(1)
			} else {
				detections.Add(1)
			}
		}
	}
	c, err := livenet.StartCluster(ccfg)
	if err != nil {
		return result{}, err
	}
	defer c.Stop()

	if cfg.metricsAddr != "" {
		ms, err := c.ServeMetrics(cfg.metricsAddr)
		if err != nil {
			return result{}, fmt.Errorf("-metrics: %w", err)
		}
		defer ms.Close()
		fmt.Printf("metrics: http://%s/metrics\n", ms.Addr())
	}

	for i := 0; i < cfg.subs; i++ {
		sub := &msg.Subscription{ID: msg.SubID(i + 1), Edge: edge, Filter: &filter.Filter{}}
		s, err := livenet.DialSubscriber(c.Addr(edge), sub)
		if err != nil {
			return result{}, err
		}
		defer s.Close()
	}
	time.Sleep(100 * time.Millisecond) // subscription flood

	publishers := make([]*livenet.Publisher, cfg.pubs)
	for i := range publishers {
		p, err := livenet.DialPublisher(c.Addr(0), msg.NodeID(i))
		if err != nil {
			return result{}, err
		}
		defer p.Close()
		publishers[i] = p
	}
	attrs := msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2})
	var body []byte
	if cfg.payload > 0 {
		body = make([]byte, cfg.payload)
	}

	// Sustained subscription churn concurrent with the measurement: a
	// churner floods subscribe/unsubscribe pairs at the edge broker for
	// the whole run, mutating every broker's routing table in place. The
	// churn filters never match the published attributes, so delivery
	// counts are untouched and any throughput delta is pure mutation
	// contention.
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	var churnOps atomic.Int64
	if cfg.churn > 0 {
		conn, err := net.Dial("tcp", c.Addr(edge))
		if err != nil {
			return result{}, err
		}
		defer conn.Close()
		hello := msg.AppendHello(nil, msg.RoleSubscriber, msg.NodeID(1<<20), 0)
		if err := msg.WriteFrame(conn, msg.FrameHello, hello); err != nil {
			return result{}, err
		}
		go func() {
			defer close(churnDone)
			interval := time.Duration(float64(time.Second) / cfg.churn)
			// All per-pair state is reused so the churner adds no heap
			// traffic inside the MemStats measurement window — the
			// reported allocs/msg stay attributable to the data plane.
			var subBuf, unsubBuf []byte
			sub := msg.Subscription{
				ID:     msg.SubID(1 << 20),
				Edge:   edge,
				Filter: filter.MustParse("A1 < 0.5"), // never matches A1 = 1
			}
			if cfg.aggregate {
				// Park a resident coverer at the edge, then churn strictly
				// narrower filters under it: every subsequent pair is a
				// local-table mutation at the edge broker, zero flood
				// frames across the chain.
				cover, err := msg.AppendSubscription(nil, &sub)
				if err != nil || msg.WriteFrame(conn, msg.FrameSubscribe, cover) != nil {
					return
				}
				sub.ID++
				sub.Filter = filter.MustParse("A1 < 0.25")
			}
			next := time.Now()
			for {
				select {
				case <-churnStop:
					return
				default:
				}
				body, err := msg.AppendSubscription(subBuf[:0], &sub)
				if err != nil {
					return
				}
				subBuf = body
				if msg.WriteFrame(conn, msg.FrameSubscribe, body) != nil {
					return
				}
				unsubBuf = msg.AppendUnsubscribe(unsubBuf[:0], sub.ID)
				if msg.WriteFrame(conn, msg.FrameUnsubscribe, unsubBuf) != nil {
					return
				}
				sub.ID++
				churnOps.Add(1)
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
		}()
	}

	grt.GC()
	rtBefore := readRuntime()
	var before, after grt.MemStats
	grt.ReadMemStats(&before)
	start := time.Now()
	churnStart := churnOps.Load() // count only pairs inside the window

	// The cluster strikes the faults relative to the first publish.
	if err := c.ArmFaults(faults, nil); err != nil {
		return result{}, err
	}

	// The flash crowd arrives mid-measurement: burst subscribers join at
	// the edge (widening every publication's fan), extra publishers
	// blast at maximum rate for the window, then the crowd leaves. The
	// extra publications count toward the quiescence target; with
	// admission on, the ingress refuses them while its queues sit above
	// the threshold, and a refused frame still counts as received.
	var flashN atomic.Int64
	flashDone := make(chan struct{})
	if cfg.flashy() {
		flash := time.AfterFunc(cfg.flashAt, func() {
			defer close(flashDone)
			var crowd []interface{ Close() error }
			for i := 0; i < cfg.flashSubs; i++ {
				sub := &msg.Subscription{
					ID:       msg.SubID(8<<20 + i),
					Edge:     edge,
					Filter:   &filter.Filter{},
					Deadline: 60 * vtime.Second,
				}
				if s, err := livenet.DialSubscriber(c.Addr(edge), sub); err == nil {
					crowd = append(crowd, s)
				}
			}
			stopAt := time.Now().Add(cfg.flashWidth)
			var fwg sync.WaitGroup
			for i := 0; i < cfg.flashPubs; i++ {
				p, err := livenet.DialPublisher(c.Addr(0), msg.NodeID(1000+i))
				if err != nil {
					continue
				}
				crowd = append(crowd, p)
				fwg.Add(1)
				go func(p *livenet.Publisher) {
					defer fwg.Done()
					for time.Now().Before(stopAt) {
						if _, err := p.Publish(0, attrs, cfg.sizeKB, 60*vtime.Second, body); err != nil {
							return
						}
						flashN.Add(1)
					}
				}(p)
			}
			fwg.Wait()
			for _, cl := range crowd {
				cl.Close()
			}
		})
		defer flash.Stop()
	} else {
		close(flashDone)
	}

	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	var sendFailed atomic.Int64
	for i, p := range publishers {
		k := cfg.n / cfg.pubs
		if i < cfg.n%cfg.pubs {
			k++
		}
		wg.Add(1)
		go func(p *livenet.Publisher, k int) {
			defer wg.Done()
			for j := 0; j < k; j++ {
				if _, err := p.Publish(0, attrs, cfg.sizeKB, 60*vtime.Second, body); err != nil {
					if cfg.faulty() {
						// A crashed ingress takes its publisher connections
						// with it; charge the rest of the stream, and what
						// the failed write had already accepted, to the
						// fault instead of aborting the measurement.
						lost := int64(k - j)
						if we := (*livenet.WriteError)(nil); errors.As(err, &we) {
							lost += int64(we.Lost)
						}
						sendFailed.Add(lost)
						return
					}
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(p, k)
	}
	wg.Wait()
	if firstErr != nil {
		return result{}, firstErr
	}
	<-flashDone
	injected := cfg.n + int(flashN.Load())

	// The measurement stays open through the fault schedule plus the
	// detection deadline, so the monitors confirm the silence before the
	// cluster shuts down.
	deadline := time.Now().Add(cfg.duration)
	if cfg.faulty() {
		tmo := cfg.hbTimeout
		if tmo == 0 {
			tmo = 4 * hb
		}
		time.Sleep(time.Until(start.Add(lastFault + tmo + 2*hb)))
	}
	if err := c.WaitIdle(injected, time.Until(deadline)); err != nil {
		return result{}, err
	}
	elapsed := time.Since(start)
	churned := churnOps.Load() - churnStart
	grt.ReadMemStats(&after)
	rtAfter := readRuntime()
	if cfg.churn > 0 {
		close(churnStop)
		<-churnDone
	}

	total := c.TotalStats()
	if !cfg.faulty() && !cfg.protected() && total.Deliveries < cfg.n*cfg.subs {
		fmt.Fprintf(os.Stderr, "warning: delivered %d of %d expected\n", total.Deliveries, cfg.n*cfg.subs)
	}
	brokerRows := make([]brokerStat, cfg.brokers)
	for i := range brokerRows {
		node := c.Node(msg.NodeID(i)) // locked: a restart swaps the node map mid-run
		brokerRows[i] = brokerStat{
			id:    msg.NodeID(i),
			stats: node.Stats(),
			peak:  node.PeakQueue(),
		}
	}
	return result{
		elapsed:      elapsed,
		msgsPerSec:   float64(cfg.n) / elapsed.Seconds(),
		allocsPerMsg: float64(after.Mallocs-before.Mallocs) / float64(cfg.n),
		bytesPerMsg:  float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.n),
		deliveries:   total.Deliveries,
		receptions:   total.Receptions,
		churnPerSec:  float64(churned) / elapsed.Seconds(),
		detections:   detections.Load(),
		restorations: restorations.Load(),
		sendFailed:   sendFailed.Load(),
		link:         total,
		flashN:       int(flashN.Load()),
		brokers:      brokerRows,

		floodsSuppressed: total.FloodsSuppressed,
		aggEntries:       c.AggregatedEntries(),

		tail:     tail,
		rtBefore: rtBefore,
		rtAfter:  rtAfter,
	}, nil
}
