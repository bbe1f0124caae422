// Command bdps-sim reproduces the paper's evaluation figures on the
// discrete-event simulator, and runs individual configurations for
// exploration.
//
// Reproduce a figure (text table to stdout, optional CSV files; figure
// cells run concurrently on all cores by default, -parallel N caps it
// and -parallel 1 forces the sequential harness — output is identical
// either way):
//
//	bdps-sim -figure 6 -duration 2h -seeds 1,2,3
//	bdps-sim -figure all -parallel 8 -csv results/
//
// Run a single configuration verbosely:
//
//	bdps-sim -single -scenario ssd -strategy ebpc:0.5 -rate 12 -seed 7
//
// Every mode also runs on the live TCP backend through the unified
// runtime layer: -backend live deploys the same plan as an in-process
// loopback broker cluster and paces it at -timescale wall seconds per
// emulated second (keep the window short):
//
//	bdps-sim -single -backend live -timescale 0.002 -duration 2m -rate 6
//
// The flags describe one run. -single runs it at -scenario, -strategy,
// -rate and -seed (FIFO and RL with ε = 0); every figure, ablation and
// claims cell is a copy of it with the fields the cell owns overwritten,
// so -multipath 2, -measure 100, -linkmodel gamma, -epsilon 0, -churn,
// the fault flags and -timescale reach every mode. -trace is single-only.
//
// Fault injection and self-healing (every mode, both backends): crash
// brokers or take a link down mid-run, then let the control plane
// detect the failure, repair the topology and renegotiate delay bounds:
//
//	bdps-sim -single -rate 6 -duration 2m -kill-broker 4 -kill-at 30s -recover -renegotiate -timeline 30s
//	bdps-sim -single -link-down 2:6:30s:80s -recover
//
// A crashed broker can rejoin warm from its durable state: -restart-broker
// replays the routing entries it logged before the crash, bumps its
// incarnation epoch and lets the repair engine route back through it.
// The report then carries the recovery ledger (replayed subscriptions,
// resumed sessions, replayed messages, stale-epoch rejections):
//
//	bdps-sim -single -rate 6 -duration 2m -kill-broker 4 -kill-at 30s \
//	    -restart-broker 4 -restart-at 60s -recover -renegotiate -timeline 30s
//
// On the live backend keep heartbeat-timeout × timescale well above
// scheduler jitter (tens of milliseconds of wall time), or every link
// looks dead:
//
//	bdps-sim -single -backend live -timescale 0.01 -duration 2m -rate 6 \
//	    -kill-broker 4 -kill-at 30s -recover -heartbeat-timeout 8s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bdps/internal/core"
	"bdps/internal/experiments"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/topology"
	"bdps/internal/trace"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bdps-sim:", err)
		os.Exit(1)
	}
}

// run parses args and executes the mode they select, writing reports to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bdps-sim", flag.ContinueOnError)
	var (
		figure   = fs.String("figure", "", "figure to reproduce: 4a, 4b, 5, 5a, 5b, 6, 6a, 6b, all")
		ablation = fs.String("ablation", "", "ablation to run: "+strings.Join(experiments.Ablations(), ", ")+", all")
		claims   = fs.Bool("claims", false, "re-run the evaluation and check the paper's claims")
		single   = fs.Bool("single", false, "run a single configuration instead of a figure")
		topoDump = fs.Bool("dump-topology", false, "print the layered overlay as JSON and exit")
		traceOut = fs.String("trace", "", "write a JSONL event trace (single mode)")

		backend   = fs.String("backend", "sim", "runtime backend: sim (discrete-event) or live (loopback TCP overlay)")
		timescale = fs.Float64("timescale", 0.001, "live backend: wall seconds per emulated second")

		scenario = fs.String("scenario", "psd", "psd, ssd or both (single mode)")
		strategy = fs.String("strategy", "eb", "fifo, rl, eb, pc, ebpc[:r] (single mode)")
		rate     = fs.Float64("rate", 10, "publishing rate, msg/min per publisher (single mode)")
		seed     = fs.Uint64("seed", 1, "seed (single / dump-topology mode)")

		duration = fs.Duration("duration", 2*time.Hour, "publishing window")
		seeds    = fs.String("seeds", "1,2,3", "comma-separated seeds for figures")
		rates    = fs.String("rates", "", "comma-separated rate sweep (figures 5/6)")
		weights  = fs.String("weights", "", "comma-separated r sweep (figure 4)")
		fig4rate = fs.Float64("fig4-rate", 10, "publishing rate for figure 4")
		ebpcW    = fs.String("ebpc-weight", "", "add an EBPC series with this r to the figure 5/6 rate sweeps")
		parallel = fs.Int("parallel", 0, "concurrent simulation runs for figures/ablations/claims (0 = all cores)")

		churnRate = fs.Float64("churn", 0, "subscription churn: subscribe arrivals per minute (0 = static population)")
		churnHalf = fs.Duration("churn-halflife", time.Minute, "subscription churn: lifetime half-life")

		aggregate = fs.Bool("aggregate", false, "covering-based subscription aggregation: forward a subscription only when no resident filter covers it (both backends)")

		flashAt    = fs.Duration("flash-at", 0, "flash crowd: burst onset within the publishing window")
		flashWidth = fs.Duration("flash-width", time.Minute, "flash crowd: burst plateau width")
		flashRamp  = fs.Duration("flash-ramp", 0, "flash crowd: linear ramp up/down around the plateau")
		flashBoost = fs.Float64("flash-boost", 0, "flash crowd: publish-rate multiplier at the peak (0 = no flash crowd)")
		flashSubs  = fs.Int("flash-subs", 0, "flash crowd: burst subscribers arriving per edge broker at onset")
		diurnal    = fs.Float64("diurnal", 0, "sinusoidal diurnal rate modulation amplitude in [0,1)")

		admission = fs.Bool("admission", false, "online admission control: gate publications through the paper's admission test against modeled ingress load")
		shed      = fs.Bool("shed", false, "graceful degradation: shed the worst-scored queue entries above the pressure threshold")
		maxQueue  = fs.Int("max-queue", 0, "overload protection: per-queue pressure / saturation threshold (0 = default 256)")
		zipfU     = fs.Int("zipf", 0, "draw subscription filters from a Zipf-popular template universe of this size (0 = paper's continuous filters)")
		zipfS     = fs.Float64("zipf-s", 1, "Zipf exponent for -zipf")

		linkLoss    = fs.Float64("link-loss", 0, "per-frame loss probability on every link (both backends)")
		linkDup     = fs.Float64("link-dup", 0, "per-frame duplication probability on every link")
		linkReorder = fs.Float64("link-reorder", 0, "per-frame reorder (adjacent swap) probability on every link; healed inside the receiver's 64-frame reorder window")
		retry       = fs.String("retry", "aware", "retransmission policy under loss: aware (deadline-aware), blind, off (every link is sequenced either way; off removes the retries)")

		killBroker    = fs.String("kill-broker", "", "crash these brokers mid-run, comma-separated ids")
		killAt        = fs.Duration("kill-at", 30*time.Second, "emulated instant at which -kill-broker crashes strike")
		restartBroker = fs.String("restart-broker", "", "restart these crashed brokers from durable state, comma-separated ids (each must also appear in -kill-broker)")
		restartAt     = fs.Duration("restart-at", 60*time.Second, "emulated instant at which -restart-broker rejoins (must be after -kill-at)")
		linkDown      = fs.String("link-down", "", "transient link outage from:to:start:end, e.g. 2:6:30s:80s")
		recov         = fs.Bool("recover", false, "detect failures and repair the routing topology")
		renege        = fs.Bool("renegotiate", false, "renegotiate delay bounds on repaired paths (implies -recover)")
		hbInterval    = fs.Duration("heartbeat-interval", 500*time.Millisecond, "failure detection: emulated heartbeat period")
		hbTimeout     = fs.Duration("heartbeat-timeout", 0, "failure detection: silence before a link is declared dead (0 = 4x interval)")
		timeline      = fs.Duration("timeline", 0, "report delivery-over-time in buckets of this emulated width")

		pd        = fs.Float64("pd", 2, "processing delay per broker, ms")
		epsilon   = fs.Float64("epsilon", core.DefaultEpsilon, "invalid-message threshold for EB/PC/EBPC (0 disables)")
		multipath = fs.Int("multipath", 0, "K-path routing (0/1 = single path)")
		measure   = fs.Int("measure", 0, "estimate link rates from N measured samples (0 = exact)")
		linkmodel = fs.String("linkmodel", "normal", "link model: normal, fixed, gamma")

		csvDir   = fs.String("csv", "", "directory to write per-figure CSV files")
		progress = fs.Bool("progress", false, "print one line per completed run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	lm, err := parseLinkModel(*linkmodel)
	if err != nil {
		return err
	}
	bk, err := parseBackend(*backend)
	if err != nil {
		return err
	}

	if *topoDump {
		ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: *seed})
		if err != nil {
			return err
		}
		return ov.WriteJSON(stdout)
	}

	// The one run the flags describe: -single runs it at its scenario,
	// strategy, rate and seed; every figure, ablation and claims cell is
	// a copy of it with the fields that cell owns overwritten.
	base := runtime.Config{
		Params: core.Params{PD: vtime.Millis(*pd), Epsilon: *epsilon},
		Workload: workload.Config{
			Duration: vtime.FromDuration(*duration),
			Churn: workload.Churn{
				RatePerMin: *churnRate,
				HalfLife:   vtime.FromDuration(*churnHalf),
			},
			Zipf: workload.Zipf{
				Universe: *zipfU,
				Exponent: *zipfS,
			},
			FlashCrowd: workload.FlashCrowd{
				At:       vtime.FromDuration(*flashAt),
				Width:    vtime.FromDuration(*flashWidth),
				Ramp:     vtime.FromDuration(*flashRamp),
				Boost:    *flashBoost,
				SubBurst: *flashSubs,
				Diurnal:  *diurnal,
			},
		},
		Admission: runtime.Admission{
			Enabled:  *admission,
			Shed:     *shed,
			MaxQueue: *maxQueue,
		},
		Aggregate:      *aggregate,
		Multipath:      *multipath,
		MeasureSamples: *measure,
		LinkModel:      lm,
		TimelineBucket: vtime.FromDuration(*timeline),
		Recovery: runtime.Recovery{
			Detect:            *recov || *renege,
			Renegotiate:       *renege,
			HeartbeatInterval: vtime.FromDuration(*hbInterval),
			HeartbeatTimeout:  vtime.FromDuration(*hbTimeout),
		},
	}
	if !bk.Deterministic() {
		base.TimeScale = *timescale
	}
	if base.Faults, err = parseFaults(*killBroker, *killAt, *restartBroker, *restartAt, *linkDown); err != nil {
		return err
	}
	if *linkLoss > 0 || *linkDup > 0 || *linkReorder > 0 {
		base.Faults = append(base.Faults, runtime.LinkLoss{
			From: msg.None, To: msg.None,
			Rate: *linkLoss, Dup: *linkDup, Reorder: *linkReorder,
		})
	}
	if base.Reliability, err = parseRetry(*retry); err != nil {
		return err
	}

	if *single {
		cfg := base
		if cfg.Scenario, err = parseScenario(*scenario); err != nil {
			return err
		}
		if cfg.Strategy, err = core.ParseStrategy(*strategy); err != nil {
			return err
		}
		cfg.Seed = *seed
		cfg.Params = cfg.Params.For(cfg.Strategy)
		cfg.Workload.RatePerMin = *rate
		var tracer *trace.JSONL
		if *traceOut != "" {
			traceFile, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer traceFile.Close()
			tracer = &trace.JSONL{W: traceFile}
			cfg.Tracer = tracer
		}
		res, err := runtime.Run(cfg, bk)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.String())
		printTimeline(stdout, res)
		if tracer != nil && tracer.Err() != nil {
			return fmt.Errorf("writing trace: %w", tracer.Err())
		}
		return nil
	}

	if *figure == "" && *ablation == "" && !*claims {
		return fmt.Errorf("nothing to do: pass -figure <id>, -ablation <id>, -claims, -single or -dump-topology (see -h)")
	}

	opts := experiments.Options{
		Fig4Rate:    fig4rate,
		Base:        base,
		Parallelism: *parallel,
		Backend:     bk,
	}
	if *ebpcW != "" {
		w, err := strconv.ParseFloat(*ebpcW, 64)
		if err != nil {
			return fmt.Errorf("-ebpc-weight: %w", err)
		}
		opts.EBPCWeight = experiments.Float(w)
	}
	if opts.Seeds, err = parseUints(*seeds); err != nil {
		return fmt.Errorf("-seeds: %w", err)
	}
	if *rates != "" {
		if opts.Rates, err = parseFloats(*rates); err != nil {
			return fmt.Errorf("-rates: %w", err)
		}
	}
	if *weights != "" {
		if opts.Weights, err = parseFloats(*weights); err != nil {
			return fmt.Errorf("-weights: %w", err)
		}
	}
	if *progress {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	if *claims {
		results, err := experiments.CheckClaims(opts)
		if err != nil {
			return err
		}
		failed, err := experiments.RenderClaims(stdout, results)
		if err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("%d/%d claims failed", failed, len(results))
		}
		fmt.Fprintf(stdout, "all %d claims hold\n", len(results))
		return nil
	}

	var figs []*experiments.Figure
	switch {
	case *ablation == "all":
		figs, err = experiments.AllAblations(opts)
	case *ablation != "":
		f, err := experiments.RunAblation(*ablation, opts)
		if err != nil {
			return err
		}
		figs = append(figs, f)
	case *figure == "all":
		figs, err = experiments.All(opts)
	default:
		figs, err = experiments.Run(*figure, opts)
	}
	if err != nil {
		return err
	}

	for i, f := range figs {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := f.Render(stdout); err != nil {
			return err
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*csvDir, "figure"+f.ID+".csv")
			file, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := f.WriteCSV(file); err != nil {
				file.Close()
				return err
			}
			if err := file.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}

func printTimeline(w io.Writer, res runtime.Result) {
	if len(res.Timeline) == 0 {
		return
	}
	fmt.Fprintln(w, "timeline:")
	for _, b := range res.Timeline {
		fmt.Fprintf(w, "  t=%5.0fs  delivery %5.1f%%  (%d/%d)\n",
			float64(b.Start)/1000, 100*b.Rate(), b.Valid, b.Targets)
	}
}

// parseRetry maps the -retry flag to a reliable-channel policy: "aware"
// (the default) gates every retransmission on the remaining slack of the
// message's downstream path, "blind" retries every loss unconditionally,
// "off" sends each frame exactly once.
func parseRetry(s string) (runtime.Reliability, error) {
	switch strings.ToLower(s) {
	case "aware", "":
		return runtime.Reliability{}, nil
	case "blind":
		return runtime.Reliability{BlindRetry: true}, nil
	case "off", "none":
		return runtime.Reliability{NoRetry: true}, nil
	}
	return runtime.Reliability{}, fmt.Errorf("unknown retry policy %q (want aware, blind or off)", s)
}

// parseFaults assembles the -kill-broker / -restart-broker / -link-down
// fault schedule.
func parseFaults(kill string, killAt time.Duration, restart string, restartAt time.Duration, linkDown string) ([]runtime.Fault, error) {
	var faults []runtime.Fault
	killed := make(map[uint64]bool)
	if kill != "" {
		ids, err := parseUints(kill)
		if err != nil {
			return nil, fmt.Errorf("-kill-broker: %w", err)
		}
		for _, id := range ids {
			faults = append(faults, runtime.BrokerCrash{ID: msg.NodeID(id), At: vtime.FromDuration(killAt)})
			killed[id] = true
		}
	}
	if restart != "" {
		ids, err := parseUints(restart)
		if err != nil {
			return nil, fmt.Errorf("-restart-broker: %w", err)
		}
		if restartAt <= killAt {
			return nil, fmt.Errorf("-restart-at %v must be after -kill-at %v", restartAt, killAt)
		}
		for _, id := range ids {
			if !killed[id] {
				return nil, fmt.Errorf("-restart-broker %d: only crashed brokers restart (add it to -kill-broker)", id)
			}
			faults = append(faults, runtime.BrokerRestart{ID: msg.NodeID(id), At: vtime.FromDuration(restartAt)})
		}
	}
	if linkDown != "" {
		ld, err := runtime.ParseLinkDown(linkDown)
		if err != nil {
			return nil, fmt.Errorf("-link-down: %w", err)
		}
		faults = append(faults, ld)
	}
	return faults, nil
}

func parseScenario(s string) (msg.Scenario, error) {
	switch strings.ToLower(s) {
	case "psd":
		return msg.PSD, nil
	case "ssd":
		return msg.SSD, nil
	case "both", "psd+ssd":
		return msg.Both, nil
	}
	return 0, fmt.Errorf("unknown scenario %q (want psd, ssd or both)", s)
}

func parseBackend(s string) (runtime.Transport, error) {
	switch strings.ToLower(s) {
	case "sim":
		return simnet.Transport{}, nil
	case "live":
		return livenet.Transport{}, nil
	}
	return nil, fmt.Errorf("unknown backend %q (want sim or live)", s)
}

func parseLinkModel(s string) (runtime.LinkModel, error) {
	switch strings.ToLower(s) {
	case "normal":
		return runtime.LinkNormal, nil
	case "fixed":
		return runtime.LinkFixed, nil
	case "gamma":
		return runtime.LinkGamma, nil
	}
	return 0, fmt.Errorf("unknown link model %q (want normal, fixed, gamma)", s)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		u, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}
