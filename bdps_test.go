package bdps

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeStrategies(t *testing.T) {
	for _, tc := range []struct {
		s    Strategy
		name string
	}{
		{FIFO(), "FIFO"}, {RL(), "RL"}, {EB(), "EB"}, {PC(), "PC"},
		{EBPC(0.5), "EBPC(r=0.50)"},
	} {
		if tc.s.Name() != tc.name {
			t.Errorf("strategy name = %q, want %q", tc.s.Name(), tc.name)
		}
	}
	s, err := ParseStrategy("ebpc:0.25")
	if err != nil || s.Name() != "EBPC(r=0.25)" {
		t.Errorf("ParseStrategy: %v, %v", s, err)
	}
}

func TestFacadeDefaults(t *testing.T) {
	p := DefaultParams()
	if p.PD != 2*Ms || p.Epsilon != 0.0005 {
		t.Errorf("DefaultParams = %+v", p)
	}
	if Hour != 60*Minute || Minute != 60*Second || Second != 1000*Ms {
		t.Error("time units inconsistent")
	}
}

func TestFacadeFilter(t *testing.T) {
	f, err := ParseFilter("A1 < 5 && A2 < 3")
	if err != nil {
		t.Fatal(err)
	}
	if f.String() == "" {
		t.Error("filter should render")
	}
	if _, err := ParseFilter("A1 <"); err == nil {
		t.Error("bad filter should fail")
	}
}

func TestFacadeOverlay(t *testing.T) {
	ov, err := BuildLayeredOverlay(LayeredConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ov.Graph.N() != 32 {
		t.Errorf("N = %d, want 32", ov.Graph.N())
	}
}

func TestFacadeRunSim(t *testing.T) {
	res, err := RunSim(SimConfig{
		Seed:     1,
		Scenario: PSD,
		Strategy: EB(),
		Workload: WorkloadConfig{RatePerMin: 6, Duration: 5 * Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidDeliveries == 0 {
		t.Error("facade run delivered nothing")
	}
	if res.DeliveryRate() <= 0 || res.DeliveryRate() > 1 {
		t.Errorf("delivery rate = %v", res.DeliveryRate())
	}
}

func TestFacadeRunFigure(t *testing.T) {
	figs, err := RunFigure("6a", ExperimentOptions{
		Seeds: []uint64{1},
		Base:  SimConfig{Workload: WorkloadConfig{Duration: 3 * Minute}},
		Rates: []float64{6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].ID != "6a" {
		t.Fatalf("figs = %+v", figs)
	}
	var buf bytes.Buffer
	if err := figs[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6a") {
		t.Error("render missing title")
	}
}

func TestFacadeScenarios(t *testing.T) {
	if PSD.String() != "PSD" || SSD.String() != "SSD" {
		t.Error("scenario names wrong")
	}
}
