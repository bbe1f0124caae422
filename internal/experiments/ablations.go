package experiments

import (
	"fmt"
	"strings"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/stats"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// Ablations quantify design choices beyond the paper's own figures.
// Each returns a Figure so the CLI renders and saves them uniformly.
// They run the congested PSD point (rate 12) with the EB strategy unless
// stated otherwise.

// ablation is one row of the ablation table: the name the CLI takes, the
// figure id, and the runner.
type ablation struct {
	name, id string
	run      func(Options) (*Figure, error)
}

// ablations is the one ordered list of ablations; RunAblation, Ablations
// and AllAblations read it.
var ablations = []ablation{
	{"epsilon", "A1", AblationEpsilon},
	{"measure", "A2", AblationMeasure},
	{"multipath", "A3", AblationMultipath},
	{"linkmodel", "A4", AblationLinkModel},
	{"topology", "A5", AblationTopology},
	{"fairness", "A6", AblationFairness},
	{"hotspot", "A7", AblationHotspot},
	{"churn", "A8", AblationChurn},
	{"recovery", "A9", AblationRecovery},
	{"loss", "A10", AblationLoss},
	{"overload", "A11", AblationOverload},
	{"restart", "A12", AblationRestart},
}

// ablationSweep runs one ablation grid — one x-point per element of xs,
// seeds innermost — on the options' worker pool and returns the
// seed-averaged result per point, in declaration order. Each cell is a
// copy of the options' base run at the congested PSD/EB/rate-12 point;
// mutate overwrites the knob the sweep owns for one x value.
func ablationSweep[T any](o *Options, xs []T, mutate func(T, *runtime.Config)) ([]metrics.Result, error) {
	cfgs := make([]runtime.Config, 0, len(xs)*len(o.Seeds))
	for _, x := range xs {
		for _, seed := range o.Seeds {
			cfg := o.Base
			cfg.Seed = seed
			cfg.Scenario = msg.PSD
			cfg.Strategy = core.MaxEB{}
			cfg.Workload.RatePerMin = 12
			mutate(x, &cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	rs, err := o.exec.runAll(cfgs)
	if err != nil {
		return nil, err
	}
	return meanBySeed(rs, len(o.Seeds)), nil
}

// AblationEpsilon sweeps the invalid-message detection threshold ε
// (§5.4). ε = 0 disables detection entirely.
func AblationEpsilon(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A1",
		Title:  "ε-detection sweep (PSD, EB, rate 12)",
		XLabel: "epsilon",
		YLabel: "delivery rate (%) / traffic (k)",
		Series: []string{"delivery %", "traffic k", "hopeless drops k"},
	}
	epsilons := []float64{0, 0.00005, 0.0005, 0.005, 0.05, 0.2}
	pts, err := ablationSweep(&opts, epsilons, func(eps float64, c *runtime.Config) {
		c.Params = core.Params{PD: opts.Base.Params.PD, Epsilon: eps}
	})
	if err != nil {
		return nil, err
	}
	for i, eps := range epsilons {
		res := pts[i]
		fig.Points = append(fig.Points, Point{X: eps, Values: map[string]float64{
			"delivery %":       100 * res.DeliveryRate(),
			"traffic k":        res.MessageNumberK(),
			"hopeless drops k": float64(res.DropsHopeless) / 1000,
		}})
	}
	return fig, nil
}

// AblationMeasure sweeps the number of measured samples used to estimate
// link-rate parameters; 0 is the oracle (the paper's assumption).
func AblationMeasure(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A2",
		Title:  "measured vs known link parameters (PSD, EB, rate 12)",
		XLabel: "measurement samples (0 = oracle)",
		YLabel: "delivery rate (%)",
		Series: []string{"delivery %"},
	}
	samples := []int{0, 5, 20, 100, 500}
	pts, err := ablationSweep(&opts, samples, func(n int, c *runtime.Config) {
		c.MeasureSamples = n
	})
	if err != nil {
		return nil, err
	}
	for i, n := range samples {
		fig.Points = append(fig.Points, Point{X: float64(n), Values: map[string]float64{
			"delivery %": 100 * pts[i].DeliveryRate(),
		}})
	}
	return fig, nil
}

// AblationMultipath compares single-path routing with DCP-style K-path
// forwarding (K = 1, 2, 3): reliability vs traffic.
func AblationMultipath(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A3",
		Title:  "single-path vs multi-path routing (PSD, EB, rate 12)",
		XLabel: "paths per (ingress, subscriber)",
		YLabel: "delivery rate (%) / traffic (k)",
		Series: []string{"delivery %", "traffic k"},
	}
	paths := []int{1, 2, 3}
	pts, err := ablationSweep(&opts, paths, func(k int, c *runtime.Config) {
		c.Multipath = k
	})
	if err != nil {
		return nil, err
	}
	for i, k := range paths {
		fig.Points = append(fig.Points, Point{X: float64(k), Values: map[string]float64{
			"delivery %": 100 * pts[i].DeliveryRate(),
			"traffic k":  pts[i].MessageNumberK(),
		}})
	}
	return fig, nil
}

// AblationLinkModel compares the normal link model (§3.2) against the
// fixed-rate assumption of QRON-style work and the shifted-gamma shape of
// refs [17, 18]. X encodes the model: 0 normal, 1 fixed, 2 gamma.
func AblationLinkModel(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A4",
		Title:  "link model: 0=normal, 1=fixed, 2=gamma (PSD, EB, rate 12)",
		XLabel: "link model",
		YLabel: "delivery rate (%)",
		Series: []string{"delivery %"},
	}
	models := []runtime.LinkModel{runtime.LinkNormal, runtime.LinkFixed, runtime.LinkGamma}
	pts, err := ablationSweep(&opts, models, func(m runtime.LinkModel, c *runtime.Config) {
		c.LinkModel = m
	})
	if err != nil {
		return nil, err
	}
	for i := range models {
		fig.Points = append(fig.Points, Point{X: float64(i), Values: map[string]float64{
			"delivery %": 100 * pts[i].DeliveryRate(),
		}})
	}
	return fig, nil
}

// AblationTopology compares the paper's layered mesh with the acyclic
// tree of §3.1 and a random mesh. X encodes the shape: 0 layered,
// 1 acyclic, 2 mesh.
func AblationTopology(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A5",
		Title:  "topology: 0=layered-mesh, 1=acyclic-tree, 2=random-mesh (PSD, EB, rate 12)",
		XLabel: "topology",
		YLabel: "delivery rate (%)",
		Series: []string{"delivery %"},
	}
	builders := []func(seed uint64) (*topology.Overlay, error){
		func(seed uint64) (*topology.Overlay, error) {
			return topology.BuildLayered(topology.LayeredConfig{Seed: seed})
		},
		func(seed uint64) (*topology.Overlay, error) {
			return topology.BuildAcyclic(topology.AcyclicConfig{Seed: seed})
		},
		func(seed uint64) (*topology.Overlay, error) {
			return topology.BuildMesh(topology.MeshConfig{Seed: seed})
		},
	}
	overlays := make([]*topology.Overlay, len(builders))
	for i, build := range builders {
		ov, err := build(opts.Seeds[0])
		if err != nil {
			return nil, err
		}
		overlays[i] = ov
	}
	pts, err := ablationSweep(&opts, overlays, func(ov *topology.Overlay, c *runtime.Config) {
		c.Overlay = ov
	})
	if err != nil {
		return nil, err
	}
	for i := range builders {
		fig.Points = append(fig.Points, Point{X: float64(i), Values: map[string]float64{
			"delivery %": 100 * pts[i].DeliveryRate(),
		}})
	}
	return fig, nil
}

// AblationFairness compares Jain's fairness index across strategies at
// the congested point — an aspect the paper does not report but the
// operator of a priced system cares about.
func AblationFairness(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A6",
		Title:  "per-subscriber fairness: 0=EB, 1=PC, 2=FIFO, 3=RL (PSD, rate 12)",
		XLabel: "strategy",
		YLabel: "Jain index / delivery %",
		Series: []string{"jain", "delivery %"},
	}
	strategies := []core.Strategy{core.MaxEB{}, core.MaxPC{}, core.FIFO{}, core.RL{}}
	pts, err := ablationSweep(&opts, strategies, func(s core.Strategy, c *runtime.Config) {
		c.Strategy = s
		c.Params = opts.Base.Params.For(s)
		c.PerSubscriber = true
	})
	if err != nil {
		return nil, err
	}
	for i := range strategies {
		fig.Points = append(fig.Points, Point{X: float64(i), Values: map[string]float64{
			"jain":       pts[i].Fairness,
			"delivery %": 100 * pts[i].DeliveryRate(),
		}})
	}
	return fig, nil
}

// AblationHotspot skews message popularity: a growing fraction of
// messages draw attributes from the hot low range, concentrating
// subscriber interest on fewer, more-valuable messages.
func AblationHotspot(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A7",
		Title:  "content hotspot skew (PSD, EB, rate 12)",
		XLabel: "hot fraction",
		YLabel: "delivery rate (%) / avg interested subs",
		Series: []string{"delivery %", "interest/msg"},
	}
	fractions := []float64{0, 0.25, 0.5, 0.75}
	pts, err := ablationSweep(&opts, fractions, func(h float64, c *runtime.Config) {
		c.Workload.HotspotFraction = h
	})
	if err != nil {
		return nil, err
	}
	for i, h := range fractions {
		res := pts[i]
		interest := 0.0
		if res.Published > 0 {
			interest = float64(res.TotalTargets) / float64(res.Published)
		}
		fig.Points = append(fig.Points, Point{X: h, Values: map[string]float64{
			"delivery %":   100 * res.DeliveryRate(),
			"interest/msg": interest,
		}})
	}
	return fig, nil
}

// AblationChurn sweeps subscription churn: on top of the static
// population, new subscribers arrive at the swept rate and stay for an
// exponential lifetime (half-life 1 min). Routing tables mutate in
// place throughout the run, each keeping its matcher (index or
// bound-column scan) current. Delivery is judged against the population
// active at each publication instant.
func AblationChurn(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A8",
		Title:  "subscription churn (PSD, EB, rate 12, half-life 1 min)",
		XLabel: "churn arrivals/min",
		YLabel: "delivery rate (%) / traffic (k)",
		Series: []string{"delivery %", "traffic k"},
	}
	rates := []float64{0, 20, 60, 180}
	pts, err := ablationSweep(&opts, rates, func(r float64, c *runtime.Config) {
		// This sweep owns the churn knob: override whatever global churn
		// the options carry, so x = 0 is a genuinely static baseline.
		if r > 0 {
			c.Workload.Churn = workload.Churn{RatePerMin: r, HalfLife: vtime.Minute}
		} else {
			c.Workload.Churn = workload.Churn{}
		}
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rates {
		fig.Points = append(fig.Points, Point{X: r, Values: map[string]float64{
			"delivery %": 100 * pts[i].DeliveryRate(),
			"traffic k":  pts[i].MessageNumberK(),
		}})
	}
	return fig, nil
}

// recoveryAblationOverlay is the kill-half topology of the recovery
// ablation: two ingress (0, 1), four middles (2–5), two edges (6, 7),
// fully bipartite between layers, with one mean per middle's links.
// Middle 2 is strictly fastest, so every initial path routes through
// it; killing middles 2 and 4 severs every route in use and leaves
// middle 3 — deliberately slow enough (110 ms/KB per hop ≈ 11 s per
// 50 KB message) to violate the tightest publisher bounds — as the
// repair target, so the renegotiation series visibly separates from
// plain repair.
func recoveryAblationOverlay() (*topology.Overlay, error) {
	g := topology.NewGraph(8)
	for _, mid := range []struct {
		id   msg.NodeID
		mean float64
	}{{2, 40}, {3, 110}, {4, 80}, {5, 130}} {
		for _, peer := range []msg.NodeID{0, 1, 6, 7} {
			if err := g.AddLink(peer, mid.id, stats.Normal{Mean: mid.mean, Sigma: 5}); err != nil {
				return nil, err
			}
		}
	}
	return &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0, 1},
		Edges:   []msg.NodeID{6, 7},
	}, nil
}

// AblationRecovery charts the self-healing control plane: half the
// relay layer is killed at T/4 and delivery rate is tracked over
// publication time for four runs — no faults, faults with the plane
// off, detection + repair, and detection + repair + delay-bound
// renegotiation. All four share one publication schedule, so the
// timeline buckets align column for column; with detection off the
// post-crash buckets flatline, with repair they return to the quiet
// baseline, and renegotiation rescues the bounds the slower repair
// path cannot honor as-is.
func AblationRecovery(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A9",
		Title:  "kill-half self-healing: delivery over time (PSD, EB, crash at T/4)",
		XLabel: "publication time (s)",
		YLabel: "delivery rate (%)",
		Series: []string{"no faults", "no recovery", "repair", "repair+renegotiate"},
	}
	ov, err := recoveryAblationOverlay()
	if err != nil {
		return nil, err
	}
	crashAt := opts.Base.Workload.Duration / 4
	type variant struct{ faults, detect, renegotiate bool }
	variants := []variant{
		{false, false, false},
		{true, false, false},
		{true, true, false},
		{true, true, true},
	}
	pts, err := ablationSweep(&opts, variants, func(v variant, c *runtime.Config) {
		c.Overlay = ov
		// The repair path costs 11 s per hop-pair: keep its links below
		// saturation (the base rate 12 would melt them and drown the
		// renegotiation signal in queueing).
		c.Workload.RatePerMin = 3
		c.TimelineBucket = opts.Base.Workload.Duration / 8
		c.Faults = nil
		if v.faults {
			c.Faults = []runtime.Fault{
				runtime.BrokerCrash{ID: 2, At: crashAt},
				runtime.BrokerCrash{ID: 4, At: crashAt},
			}
		}
		// A demanding success target separates the series: plain repair
		// keeps the original bounds and loses the deliveries the slow
		// detour misses; renegotiation relaxes them to what the detour
		// can actually meet 95% of the time.
		c.Recovery = runtime.Recovery{
			Detect:        v.detect,
			Renegotiate:   v.renegotiate,
			SuccessTarget: 0.95,
		}
	})
	if err != nil {
		return nil, err
	}
	return timelineFigure(fig, pts), nil
}

// AblationLoss charts lossy-network resilience: the congested PSD point
// under a wildcard per-arc loss adversary (5% duplication throughout),
// swept over the per-transmission loss rate for four reliability arms —
// no loss injected, loss with retransmission off, blind retransmission,
// and deadline-aware retransmission (retries admitted only while the
// remaining slack still meets the success target; hopeless retries are
// abandoned instead of burning link time). Deadline-aware retry must
// dominate the no-retry arm on delivery rate at every loss level, and by
// construction never delivers outside a bound it already gave up on.
func AblationLoss(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A10",
		Title:  "lossy links: delivery vs loss rate (PSD, EB, rate 12, dup 5%)",
		XLabel: "per-transmission loss rate",
		YLabel: "delivery rate (%)",
		Series: []string{"no loss", "no retry", "blind retry", "deadline-aware"},
	}
	type arm struct {
		loss bool
		rel  runtime.Reliability
	}
	arms := []arm{
		{loss: false},
		{loss: true, rel: runtime.Reliability{NoRetry: true}},
		{loss: true, rel: runtime.Reliability{BlindRetry: true}},
		{loss: true},
	}
	rates := []float64{0.05, 0.10, 0.15, 0.20}
	pts, err := ablationSweep(&opts, rateArms(rates, len(arms)), func(c rateArm, cfg *runtime.Config) {
		a := arms[c.arm]
		cfg.Reliability = a.rel
		cfg.Faults = nil
		if a.loss {
			cfg.Faults = []runtime.Fault{runtime.LinkLoss{
				From: msg.None, To: msg.None,
				Rate: c.rate, Dup: 0.05,
			}}
		}
		// The no-loss arm is rate-independent: leaving its config identical
		// across rates lets the shared run cache evaluate it once.
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rates {
		p := Point{X: r, Values: map[string]float64{}}
		for j, name := range fig.Series {
			p.Values[name] = 100 * pts[i*len(arms)+j].DeliveryRate()
		}
		fig.Points = append(fig.Points, p)
	}
	return fig, nil
}

// AblationOverload charts overload protection under a flash crowd: the
// PSD/EB point swept over rising base publish rates, each run hit by a
// mid-run flash crowd (6× publish boost concentrated on the hot
// content range plus a correlated subscribe burst), for three
// protection arms — no protection, pressure shedding only, and online
// admission control plus shedding. The judged metric is admitted-traffic
// SLO attainment (delivery rate over what the system accepted): with no
// protection the backlog starves admitted traffic as rate rises; with
// admission + shed, attainment stays at the success target because the
// overflow is refused at the door — the paper's admission test applied
// online — and the rejected share is reported as its own series.
func AblationOverload(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A11",
		Title:  "flash crowd: SLO attainment vs offered rate (PSD, EB, boost 6x)",
		XLabel: "base publish rate (msgs/min)",
		YLabel: "admitted-traffic SLO attainment (%) / rejected (%)",
		Series: []string{"no protection", "shed only", "admission+shed", "rejected % (admission)"},
	}
	// A tight shed threshold makes pressure shedding bite well before the
	// flash crowd has already destroyed every queued deadline.
	arms := []runtime.Admission{
		{},
		{Shed: true, MaxQueue: 8},
		{Enabled: true, Shed: true, MaxQueue: 8},
	}
	rates := []float64{6, 12, 18, 24}
	pts, err := ablationSweep(&opts, rateArms(rates, len(arms)), func(c rateArm, cfg *runtime.Config) {
		cfg.Workload.RatePerMin = c.rate
		// The congested base's 10–30 s bounds cap attainment well below
		// any useful target even with zero load, leaving admission
		// nothing to protect. A11 instead runs the paper's relaxed
		// bounds (30–60 s): unloaded traffic meets the target, and the
		// flash crowd is what destroys it.
		cfg.Workload.PSDDelayLo = 30 * vtime.Second
		cfg.Workload.PSDDelayHi = 60 * vtime.Second
		cfg.Workload.FlashCrowd = workload.FlashCrowd{
			At:       opts.Base.Workload.Duration / 4,
			Width:    opts.Base.Workload.Duration / 4,
			Boost:    6,
			SubBurst: 8,
		}
		cfg.Admission = arms[c.arm]
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rates {
		p := Point{X: r, Values: map[string]float64{}}
		for j := 0; j < len(arms); j++ {
			p.Values[fig.Series[j]] = 100 * pts[i*len(arms)+j].SLOAttainment()
		}
		p.Values["rejected % (admission)"] = 100 * pts[i*len(arms)+2].RejectRate()
		fig.Points = append(fig.Points, p)
	}
	return fig, nil
}

// restartAblationOverlay is the cut-vertex topology of the restart
// ablation: two ingress (0, 1) feed middle 2, which alone reaches
// middle 3 and the two edges (4, 5). Broker 2 is a cut vertex — when it
// crashes there is nothing to reroute through, so the self-healing
// plane of A9 is powerless and only a warm restart from durable state
// can bring delivery back.
func restartAblationOverlay() (*topology.Overlay, error) {
	g := topology.NewGraph(6)
	link := stats.Normal{Mean: 50, Sigma: 5}
	for _, arc := range [][2]msg.NodeID{{0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 5}} {
		if err := g.AddLink(arc[0], arc[1], link); err != nil {
			return nil, err
		}
	}
	return &topology.Overlay{
		Graph:   g,
		Ingress: []msg.NodeID{0, 1},
		Edges:   []msg.NodeID{4, 5},
	}, nil
}

// AblationRestart charts crash-restart durability: a cut-vertex broker
// crashes at T/4 and delivery rate is tracked over publication time for
// three runs sharing one publication schedule — no faults, crash with
// no restart, and crash followed at T/2 by a warm restart from the
// WAL (plus one subscriber session dropping and resuming on the
// rejoined incarnation). Repair cannot help here: every path routes
// through the dead broker, so the crash-only series flatlines for the
// rest of the run, while the restart series returns to the quiet
// baseline once the recovered routing table is back on the wire.
func AblationRestart(opts Options) (*Figure, error) {
	opts.setDefaults()
	fig := &Figure{
		ID:     "A12",
		Title:  "cut-vertex crash: delivery over time, restart vs none (PSD, EB)",
		XLabel: "publication time (s)",
		YLabel: "delivery rate (%)",
		Series: []string{"no faults", "crash only", "crash + restart + resume"},
	}
	ov, err := restartAblationOverlay()
	if err != nil {
		return nil, err
	}
	crashAt := opts.Base.Workload.Duration / 4
	restartAt := opts.Base.Workload.Duration / 2
	sessionAt := opts.Base.Workload.Duration * 5 / 8
	type variant struct{ crash, restart bool }
	variants := []variant{{false, false}, {true, false}, {true, true}}
	pts, err := ablationSweep(&opts, variants, func(v variant, c *runtime.Config) {
		c.Overlay = ov
		// The single spine saturates quickly: keep the rate low enough
		// that the quiet baseline is queueing-free.
		c.Workload.RatePerMin = 3
		c.TimelineBucket = opts.Base.Workload.Duration / 8
		c.Recovery = runtime.Recovery{Detect: true, Renegotiate: true}
		c.Faults = nil
		if v.crash {
			c.Faults = []runtime.Fault{runtime.BrokerCrash{ID: 2, At: crashAt}}
		}
		if v.restart {
			c.Faults = append(c.Faults,
				runtime.BrokerRestart{ID: 2, At: restartAt},
				runtime.SessionDown{Sub: 3, Start: sessionAt, End: sessionAt + 30*vtime.Second},
			)
		}
	})
	if err != nil {
		return nil, err
	}
	return timelineFigure(fig, pts), nil
}

// rateArm is one cell of a rate × arm sweep.
type rateArm struct {
	rate float64
	arm  int
}

// rateArms declares a rate × arm grid, arms innermost.
func rateArms(rates []float64, arms int) []rateArm {
	var cells []rateArm
	for _, r := range rates {
		for a := 0; a < arms; a++ {
			cells = append(cells, rateArm{r, a})
		}
	}
	return cells
}

// timelineFigure fills fig with one point per timeline bucket of the
// first run: series j is run j's delivery rate in that bucket.
func timelineFigure(fig *Figure, pts []metrics.Result) *Figure {
	for i, b := range pts[0].Timeline {
		p := Point{X: float64(b.Start) / 1000, Values: map[string]float64{}}
		for j, name := range fig.Series {
			if tl := pts[j].Timeline; i < len(tl) {
				p.Values[name] = 100 * tl[i].Rate()
			}
		}
		fig.Points = append(fig.Points, p)
	}
	return fig
}

// RunAblation dispatches an ablation by name or figure id.
func RunAblation(id string, opts Options) (*Figure, error) {
	for _, a := range ablations {
		if id == a.name || id == a.id {
			return a.run(opts)
		}
	}
	return nil, fmt.Errorf("experiments: unknown ablation %q (want %s)", id, strings.Join(Ablations(), ", "))
}

// Ablations lists the ablation names in order.
func Ablations() []string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.name
	}
	return names
}

// AllAblations runs every ablation with one shared worker pool and run
// cache: several sweeps revisit the unmutated base point (ε at its
// default, 0 measurement samples, the normal link model, hotspot 0), and
// sharing the cache runs that cell once instead of once per sweep.
func AllAblations(opts Options) ([]*Figure, error) {
	opts.setDefaults()
	var out []*Figure
	for _, a := range ablations {
		f, err := a.run(opts)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
