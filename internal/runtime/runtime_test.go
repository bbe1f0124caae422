package runtime

import (
	"math"
	"testing"
	"time"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

func TestSamplerMoments(t *testing.T) {
	truth := stats.Normal{Mean: 75, Sigma: 20}
	for _, tc := range []struct {
		model LinkModel
		name  string
	}{{LinkNormal, "normal"}, {LinkGamma, "gamma"}} {
		s := NewSampler(tc.model, truth, 1)
		stream := stats.NewStream(5)
		var w stats.Welford
		for i := 0; i < 100000; i++ {
			w.Add(s.Sample(stream))
		}
		if math.Abs(w.Mean()-75) > 1.5 {
			t.Errorf("%s sampler mean = %v, want ≈75", tc.name, w.Mean())
		}
		if math.Abs(w.Std()-20) > 2 {
			t.Errorf("%s sampler std = %v, want ≈20", tc.name, w.Std())
		}
	}
	fixed := NewSampler(LinkFixed, truth, 1)
	if fixed.Sample(stats.NewStream(1)) != 75 {
		t.Error("fixed sampler should return the mean")
	}
}

func TestWallClockScalesElapsedTime(t *testing.T) {
	c := NewWallClock(0.01) // 1 emulated second per 10 wall ms
	start := c.Now()
	time.Sleep(20 * time.Millisecond)
	elapsed := c.Now() - start
	// 20 wall ms at scale 0.01 ≈ 2000 emulated ms; bound loosely for
	// scheduler jitter.
	if elapsed < 1500 || elapsed > 20000 {
		t.Errorf("elapsed = %v emulated ms, want ≈2000", elapsed)
	}
}

func TestWallClockRestartRewindsToZero(t *testing.T) {
	c := NewWallClock(1)
	time.Sleep(5 * time.Millisecond)
	c.Restart()
	if now := c.Now(); now < 0 || now > 1000 {
		t.Errorf("after Restart, Now = %v, want ≈0", now)
	}
}

func TestAbsoluteWallClockMatchesUnixMillis(t *testing.T) {
	c := AbsoluteWallClock(1)
	wall := float64(time.Now().UnixMicro()) / 1000
	if d := math.Abs(c.Now() - wall); d > 1000 {
		t.Errorf("absolute clock off by %v ms from Unix wall time", d)
	}
	if c.Scale() != 1 {
		t.Errorf("Scale() = %v, want 1", c.Scale())
	}
}

// TestScaleConverts: Scale is the one emulated↔wall conversion. A round
// trip at a compressed scale returns what went in, a scale ≤ 0 is real
// time, and vtime.Inf saturates to the longest Duration.
func TestScaleConverts(t *testing.T) {
	s := Scale(0.005)
	if got := s.Wall(200); got != time.Millisecond {
		t.Errorf("Wall(200) at 0.005 = %v, want 1ms", got)
	}
	for _, m := range []vtime.Millis{0, 0.25, 1234.5, 3 * vtime.Hour} {
		if got := s.Emulated(s.Wall(m)); math.Abs(got-m) > 1e-3 {
			t.Errorf("round trip of %v ms at 0.005 = %v", m, got)
		}
	}
	for _, z := range []Scale{0, -2} {
		if z.Wall(3) != 3*time.Millisecond || z.Emulated(time.Second) != 1000 {
			t.Errorf("Scale(%v) converts %v and %v, want real time", z, z.Wall(3), z.Emulated(time.Second))
		}
	}
	if got := NewWallClock(0).Scale(); got != 1 {
		t.Errorf("NewWallClock(0).Scale() = %v, want 1", got)
	}
	if got := s.Wall(vtime.Inf); got != math.MaxInt64 {
		t.Errorf("Wall(Inf) = %v, want the longest Duration", got)
	}
}

func planCfg() Config {
	return Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Workload: workload.Config{RatePerMin: 6, Duration: 2 * vtime.Minute},
	}
}

func TestNewPlanAssemblesEverything(t *testing.T) {
	p, err := NewPlan(planCfg())
	if err != nil {
		t.Fatal(err)
	}
	n := p.Overlay.Graph.N()
	if len(p.Brokers) != n {
		t.Errorf("brokers = %d, want one per overlay node (%d)", len(p.Brokers), n)
	}
	if len(p.Tables) != n {
		t.Errorf("tables = %d, want %d", len(p.Tables), n)
	}
	if len(p.Subs) == 0 || len(p.Links) == 0 || len(p.Pubs) == 0 {
		t.Fatalf("plan incomplete: %d subs, %d links, %d pubs",
			len(p.Subs), len(p.Links), len(p.Pubs))
	}
	// Deterministic link enumeration: strictly ascending (from, to).
	for i := 1; i < len(p.Links); i++ {
		a, b := p.Links[i-1], p.Links[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("links not in sorted arc order at %d: %+v then %+v", i, a, b)
		}
		if p.Links[i].Index != i {
			t.Fatalf("link %d has Index %d", i, p.Links[i].Index)
		}
	}
	// Per-publisher generation order: publications of one publisher are
	// time-ordered.
	last := map[msg.NodeID]vtime.Millis{}
	for _, m := range p.Pubs {
		if m.Published < last[m.Publisher] {
			t.Fatalf("publisher %d publications out of order", m.Publisher)
		}
		last[m.Publisher] = m.Published
	}
}

func TestNewPlanValidatesFaults(t *testing.T) {
	cfg := planCfg()
	cfg.Faults = []Fault{BrokerCrash{ID: 999, At: 0}}
	if _, err := NewPlan(cfg); err == nil {
		t.Error("crash of unknown broker should fail")
	}
	cfg = planCfg()
	cfg.Faults = []Fault{LinkDown{From: 0, To: 1, Start: 0, End: 1}}
	if _, err := NewPlan(cfg); err == nil {
		t.Error("LinkDown on a non-arc should fail")
	}
	cfg = planCfg()
	cfg.Faults = []Fault{LinkDown{From: 0, To: 4, Start: 5, End: 1}}
	if _, err := NewPlan(cfg); err == nil {
		t.Error("inverted window should fail")
	}
}

func TestPlanMultipathBuildsDedupBrokers(t *testing.T) {
	cfg := planCfg()
	cfg.Multipath = 2
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dedup is observable: processing the same message twice must report
	// the second as a duplicate.
	proc := p.Brokers[0].NewProcessor()
	m := p.Pubs[0]
	proc.Process(m, m.Published)
	if res := proc.Process(m, m.Published); !res.Duplicate {
		t.Error("multipath plan brokers must dedup repeated arrivals")
	}
}

func TestLinkModelStrings(t *testing.T) {
	if LinkNormal.String() != "normal" || LinkFixed.String() != "fixed" ||
		LinkGamma.String() != "gamma" {
		t.Error("LinkModel strings wrong")
	}
	if LinkModel(9).String() == "" {
		t.Error("unknown model should still render")
	}
}

// closeRecorder is a deployment whose Close records one detection, the
// way a live deployment's repair goroutine can until it is stopped.
type closeRecorder struct {
	p      *Plan
	closed bool
}

func (d *closeRecorder) Inject([]*msg.Message) error { return nil }
func (d *closeRecorder) Drain() error                { return nil }
func (d *closeRecorder) PeakQueue() int              { return 0 }
func (d *closeRecorder) Close() error {
	if !d.closed {
		d.closed = true
		d.p.Metrics.Detection(1)
	}
	return nil
}

type closeRecorderTransport struct{}

func (closeRecorderTransport) Name() string        { return "close-recorder" }
func (closeRecorderTransport) Deterministic() bool { return true }
func (closeRecorderTransport) Deploy(p *Plan) (Deployment, error) {
	return &closeRecorder{p: p}, nil
}

// TestRunClosesBeforeResult: Run stops the deployment before it freezes
// the collector, so what the backend records while stopping is in the
// result.
func TestRunClosesBeforeResult(t *testing.T) {
	r, err := Run(planCfg(), closeRecorderTransport{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Detections != 1 {
		t.Errorf("detections = %d, want the 1 recorded by Close", r.Detections)
	}
}
