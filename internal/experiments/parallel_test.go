package experiments

import (
	"reflect"
	"sync"
	"testing"

	"bdps/internal/core"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// TestParallelMatchesSequential is the harness's core guarantee: every
// figure produced with a worker pool is bit-identical — field for field,
// float for float — to the sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	withParallelism := func(p int) Options {
		opts := tinyOpts()
		opts.Seeds = []uint64{1, 2}
		opts.Parallelism = p
		return opts
	}
	type buildFn func(Options) ([]*Figure, error)
	builders := map[string]buildFn{
		"4a": func(o Options) ([]*Figure, error) {
			f, err := Figure4a(o)
			return []*Figure{f}, err
		},
		"5": func(o Options) ([]*Figure, error) {
			a, b, err := Figure5(o)
			return []*Figure{a, b}, err
		},
		"6": func(o Options) ([]*Figure, error) {
			a, b, err := Figure6(o)
			return []*Figure{a, b}, err
		},
	}
	for name, build := range builders {
		seq, err := build(withParallelism(1))
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		par, err := build(withParallelism(8))
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: parallel figures differ from sequential:\nseq: %+v\npar: %+v", name, seq, par)
		}
	}
}

// TestAllSharesCacheAcrossFigures: when the rate sweep revisits Figure
// 4's fixed rate, the identical cells across figures run once.
func TestAllSharesCacheAcrossFigures(t *testing.T) {
	opts := tinyOpts()
	opts.Rates = []float64{8} // == tinyOpts Fig4Rate: 5a shares the SSD EB/PC cells with 4a
	var mu sync.Mutex
	runs := 0
	opts.Progress = func(string) { mu.Lock(); runs++; mu.Unlock() }
	figs, err := All(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("got %d figures", len(figs))
	}
	// Unique cells: 4a (SSD): EB, PC, EBPC(0.5) = 3; 4b (PSD): 3;
	// 5 (SSD, rate 8): FIFO, RL = 2 new (EB, PC cached from 4a);
	// 6 (PSD, rate 8): 2 new. One seed → 10 runs, not 14.
	if runs != 10 {
		t.Errorf("runs = %d, want 10 (cache must dedupe cells across figures)", runs)
	}
}

// TestAllAblationsSharedCache: the unmutated base point recurs across
// sweeps and must run once.
func TestAllAblationsSharedCache(t *testing.T) {
	opts := Options{Seeds: []uint64{1}, Base: window(2 * vtime.Minute)}
	var mu sync.Mutex
	runs := 0
	opts.Progress = func(string) { mu.Lock(); runs++; mu.Unlock() }
	figs, err := AllAblations(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(Ablations()) {
		t.Fatalf("got %d ablation figures", len(figs))
	}
	// 67 cells declared (6+5+3+3+3+4+4+4+4+16+12+3, one seed); the base
	// config recurs in the ε (default ε), measure (0 samples), link-model
	// (normal), hotspot (0) and churn (0 arrivals/min) sweeps, and the
	// loss sweep's no-loss arm is rate-independent (4 cells collapse into
	// the same shared base) → 59 unique runs (the recovery and restart
	// sweeps' cells run on their own overlays and timelines, and the
	// overload sweep's flash-crowd cells vary rate × protection arm, so
	// none of theirs dedupe).
	if runs != 59 {
		t.Errorf("runs = %d, want 59 (base cell must dedupe across ablations)", runs)
	}
}

// recordingTransport runs every cell on the simulator and records the
// config each plan was built from. It reports itself non-deterministic,
// so the run cache passes every cell through.
type recordingTransport struct {
	mu   sync.Mutex
	cfgs []runtime.Config
}

func (*recordingTransport) Name() string        { return "recording" }
func (*recordingTransport) Deterministic() bool { return false }

func (r *recordingTransport) Deploy(p *runtime.Plan) (runtime.Deployment, error) {
	r.mu.Lock()
	r.cfgs = append(r.cfgs, p.Cfg)
	r.mu.Unlock()
	return simnet.Transport{}.Deploy(p)
}

// TestAblationCellsCarryBase: every ablation cell is a copy of
// Options.Base, so the knobs a sweep does not own reach its cells
// unchanged — TimeScale in particular, or a live ablation paces in real
// time.
func TestAblationCellsCarryBase(t *testing.T) {
	for _, a := range ablations {
		rec := &recordingTransport{}
		opts := Options{
			Seeds: []uint64{1},
			Base: runtime.Config{
				Workload:       workload.Config{Duration: vtime.Minute},
				TimeScale:      0.002,
				Multipath:      2,
				MeasureSamples: 5,
			},
			Backend: rec,
		}
		if _, err := a.run(opts); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(rec.cfgs) == 0 {
			t.Fatalf("%s: no cell reached the transport", a.name)
		}
		for i, c := range rec.cfgs {
			if c.TimeScale != 0.002 {
				t.Errorf("%s cell %d: TimeScale %g, want 0.002", a.name, i, c.TimeScale)
			}
			if a.name != "multipath" && c.Multipath != 2 {
				t.Errorf("%s cell %d: Multipath %d, want 2", a.name, i, c.Multipath)
			}
			if a.name != "measure" && c.MeasureSamples != 5 {
				t.Errorf("%s cell %d: MeasureSamples %d, want 5", a.name, i, c.MeasureSamples)
			}
		}
	}
}

// TestCellsShareNoFaultsArray: every cell copies Options.Base, so all
// cells of a figure or an ablation share Base.Faults' backing array. A
// plan sorts its faults; it must sort its own copy, or cells running at
// once reorder the array under each other (a data race under -race) and
// the caller's slice comes back reordered. The faults here are out of
// onset order the way bdps-sim builds them: crashes first, the wildcard
// LinkLoss (Start 0) last.
func TestCellsShareNoFaultsArray(t *testing.T) {
	faults := []runtime.Fault{
		runtime.BrokerCrash{ID: 4, At: 2 * vtime.Minute},
		runtime.BrokerCrash{ID: 2, At: vtime.Minute},
		runtime.LinkLoss{From: msg.None, To: msg.None, Rate: 0.1},
	}
	want := append([]runtime.Fault(nil), faults...)
	opts := tinyOpts()
	opts.Base.Faults = faults
	opts.Parallelism = 4
	if _, err := Figure4a(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationEpsilon(opts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opts.Base.Faults, want) {
		t.Errorf("Base.Faults = %v after the runs, want %v unchanged", opts.Base.Faults, want)
	}
}

// TestExecutorSingleFlight: concurrent requests for one config share a
// single underlying run.
func TestExecutorSingleFlight(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	ex := newExecutor(4, func(string) { mu.Lock(); runs++; mu.Unlock() }, nil)
	cfg := runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Workload: workload.Config{RatePerMin: 10, Duration: 2 * vtime.Minute},
	}
	cfgs := make([]runtime.Config, 8)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	rs, err := ex.runAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if !reflect.DeepEqual(rs[0], rs[i]) {
			t.Fatalf("result %d differs: %+v vs %+v", i, rs[0], rs[i])
		}
	}
	if runs != 1 {
		t.Errorf("identical configs ran %d times, want 1", runs)
	}
}

// TestConcurrentFigures drives two figure builders at once — the shared
// state they touch (entry/event pools, derived RNG streams) must be
// race-free. Run with -race for the real assertion.
func TestConcurrentFigures(t *testing.T) {
	opts := tinyOpts()
	opts.Parallelism = 2
	var wg sync.WaitGroup
	errs := make([]error, 2)
	figs := make([]*Figure, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		figs[0], errs[0] = Figure4a(opts)
	}()
	go func() {
		defer wg.Done()
		var f *Figure
		f, _, errs[1] = Figure6(opts)
		figs[1] = f
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("figure %d: %v", i, err)
		}
		if figs[i] == nil || len(figs[i].Points) == 0 {
			t.Fatalf("figure %d empty", i)
		}
	}
}

// TestNormalizeStrategy pins the endpoint degeneration (eq. 10) the run
// cache exploits.
func TestNormalizeStrategy(t *testing.T) {
	if _, ok := normalizeStrategy(core.MaxEBPC{R: 0}).(core.MaxPC); !ok {
		t.Error("EBPC r=0 should normalize to PC")
	}
	if _, ok := normalizeStrategy(core.MaxEBPC{R: 1}).(core.MaxEB); !ok {
		t.Error("EBPC r=1 should normalize to EB")
	}
	if _, ok := normalizeStrategy(core.MaxEBPC{R: 0.4}).(core.MaxEBPC); !ok {
		t.Error("interior weights must not normalize")
	}
	if _, ok := normalizeStrategy(core.FIFO{}).(core.FIFO); !ok {
		t.Error("FIFO must pass through")
	}
}

// TestConfigKey pins keying semantics: distinct configs get distinct
// keys, equal configs share one, and uncacheable inputs are refused.
func TestConfigKey(t *testing.T) {
	base := func() runtime.Config {
		return runtime.Config{
			Seed:     1,
			Scenario: msg.PSD,
			Strategy: core.MaxEB{},
			Workload: workload.Config{RatePerMin: 10, Duration: vtime.Minute},
		}
	}
	a, ok := configKey(ptr(base()))
	if !ok {
		t.Fatal("plain config must be cacheable")
	}
	b, _ := configKey(ptr(base()))
	if a != b {
		t.Error("equal configs must share a key")
	}
	distinct := []func(*runtime.Config){
		func(c *runtime.Config) { c.Seed = 2 },
		func(c *runtime.Config) { c.Scenario = msg.SSD },
		func(c *runtime.Config) { c.Strategy = core.RL{} },
		func(c *runtime.Config) { c.Strategy = core.FIFO{} }, // %T distinguishes FIFO{} from RL{}
		func(c *runtime.Config) { c.Strategy = core.MaxEBPC{R: 0.3} },
		func(c *runtime.Config) { c.Params = core.Params{PD: 5, Epsilon: 0.1} },
		func(c *runtime.Config) { c.Workload.RatePerMin = 12 },
		func(c *runtime.Config) { c.Workload.HotspotFraction = 0.5 },
		func(c *runtime.Config) { c.Multipath = 2 },
		func(c *runtime.Config) { c.MeasureSamples = 50 },
		func(c *runtime.Config) { c.LinkModel = runtime.LinkGamma },
		func(c *runtime.Config) { c.MinRate = 2 },
		func(c *runtime.Config) { c.PerSubscriber = true },
		func(c *runtime.Config) { c.TopologyCfg.Seed = 7 },
		func(c *runtime.Config) { c.TimeScale = 0.5 },
		func(c *runtime.Config) { c.Faults = []runtime.Fault{runtime.BrokerCrash{ID: 1, At: 10}} },
		func(c *runtime.Config) {
			c.Faults = []runtime.Fault{runtime.LinkDown{From: 0, To: 1, Start: 10, End: 20}}
		},
		func(c *runtime.Config) { c.Recovery = runtime.Recovery{Detect: true} },
		func(c *runtime.Config) { c.Recovery = runtime.Recovery{Detect: true, Renegotiate: true} },
		func(c *runtime.Config) {
			c.Faults = []runtime.Fault{runtime.LinkLoss{From: msg.None, To: msg.None, Rate: 0.1}}
		},
		func(c *runtime.Config) { c.Reliability = runtime.Reliability{NoRetry: true} },
		func(c *runtime.Config) { c.Reliability = runtime.Reliability{BlindRetry: true} },
		func(c *runtime.Config) { c.TimelineBucket = 30 * vtime.Second },
		func(c *runtime.Config) { c.Aggregate = true },
		func(c *runtime.Config) { c.Admission = runtime.Admission{Enabled: true} },
		func(c *runtime.Config) { c.Admission = runtime.Admission{Enabled: true, Shed: true} },
		func(c *runtime.Config) { c.Workload.FlashCrowd = workload.FlashCrowd{Boost: 8, At: 10 * vtime.Second} },
	}
	seen := map[string]int{a: -1}
	for i, mutate := range distinct {
		cfg := base()
		mutate(&cfg)
		k, ok := configKey(&cfg)
		if !ok {
			t.Errorf("mutation %d unexpectedly uncacheable", i)
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %d collides with %d", i, prev)
		}
		seen[k] = i
	}
	uncacheable := []func(*runtime.Config){
		func(c *runtime.Config) { c.Subscriptions = []*msg.Subscription{} },
	}
	for i, mutate := range uncacheable {
		cfg := base()
		mutate(&cfg)
		if _, ok := configKey(&cfg); ok {
			t.Errorf("uncacheable mutation %d got a key", i)
		}
	}
}

func ptr(c runtime.Config) *runtime.Config { return &c }

// TestConfigKeyCoversAllFields pins the runtime.Config field list so a
// new field cannot silently escape the cache key (which would let two
// different runs share one cached result).
func TestConfigKeyCoversAllFields(t *testing.T) {
	want := map[string]bool{
		"Seed": true, "Scenario": true, "Strategy": true, "Params": true,
		"Workload": true, "Overlay": true, "TopologyCfg": true,
		"Multipath": true, "MeasureSamples": true, "LinkModel": true,
		"MinRate": true, "Faults": true, "Tracer": true,
		"PerSubscriber": true, "Subscriptions": true,
		"TimeScale": true, "LiveShards": true, "Recovery": true,
		"Reliability": true, "TimelineBucket": true, "Aggregate": true,
		"Admission": true,
	}
	rt := reflect.TypeOf(runtime.Config{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if !want[name] {
			t.Errorf("runtime.Config gained field %q: extend configKey (and this list)", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("runtime.Config lost field %q: prune configKey (and this list)", name)
	}
}

// TestRunAllDeterministicError: the first error by batch index wins,
// regardless of scheduling.
func TestRunAllDeterministicError(t *testing.T) {
	ex := newExecutor(4, nil, nil)
	good := runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Workload: workload.Config{RatePerMin: 10, Duration: vtime.Minute},
	}
	bad := good
	bad.Workload.RatePerMin = -1 // workload validation fails
	if _, err := ex.runAll([]runtime.Config{good, bad, good}); err == nil {
		t.Fatal("want error from invalid cell")
	}
}

// TestMeanBySeed pins the grouping arithmetic: seeds innermost, one
// averaged result per point.
func TestMeanBySeed(t *testing.T) {
	rs := make([]metrics.Result, 4)
	for i := range rs {
		rs[i].Published = 10 * (i + 1)
	}
	got := meanBySeed(rs, 2)
	if len(got) != 2 || got[0].Published != 15 || got[1].Published != 35 {
		t.Errorf("meanBySeed = %+v", got)
	}
}
