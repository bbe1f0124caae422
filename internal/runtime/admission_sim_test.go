package runtime_test

import (
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/simnet"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// overloadCfg is the A11 rate-18 cell: the congested PSD point with the
// paper's relaxed 30–60 s bounds, hit mid-run by a 6× flash crowd with
// a correlated subscribe burst.
func overloadCfg() runtime.Config {
	return runtime.Config{
		Seed:     1,
		Scenario: msg.PSD,
		Strategy: core.MaxEB{},
		Workload: workload.Config{
			RatePerMin: 18,
			Duration:   20 * vtime.Minute,
			PSDDelayLo: 30 * vtime.Second,
			PSDDelayHi: 60 * vtime.Second,
			FlashCrowd: workload.FlashCrowd{
				At:       5 * vtime.Minute,
				Width:    5 * vtime.Minute,
				Boost:    6,
				SubBurst: 8,
			},
		},
	}
}

// TestAdmissionProtectsSLO is the headline overload claim, pinned as a
// test: with no protection the flash crowd starves admitted traffic far
// below the success target; with online admission control plus shedding
// the system keeps its promise to the traffic it accepted, and the
// overflow is counted at the door rather than silently destroyed.
func TestAdmissionProtectsSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("20-minute emulated flash-crowd runs")
	}
	unprotected, err := runtime.Run(overloadCfg(), simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := overloadCfg()
	cfg.Admission = runtime.Admission{Enabled: true, Shed: true, MaxQueue: 8}
	protected, err := runtime.Run(cfg, simnet.Transport{})
	if err != nil {
		t.Fatal(err)
	}

	if att := unprotected.SLOAttainment(); att >= 0.5 {
		t.Errorf("unprotected flash crowd attained %.1f%%, want the collapse (< 50%%)", 100*att)
	}
	if att := protected.SLOAttainment(); att < 0.9 {
		t.Errorf("admission+shed attained %.1f%% on admitted traffic, want ≥ the 90%% success target", 100*att)
	}
	if unprotected.PubsRejected != 0 {
		t.Errorf("unprotected run rejected %d publications, want 0", unprotected.PubsRejected)
	}
	if protected.PubsRejected == 0 {
		t.Error("protected run rejected nothing: admission never engaged")
	}
	// Ledger invariants on the protected run: everything injected was
	// admitted (possibly relaxed), and offered load is conserved against
	// the unprotected run.
	if protected.PubsAdmitted+protected.PubsRelaxed != protected.Published {
		t.Errorf("admitted %d + relaxed %d != published %d",
			protected.PubsAdmitted, protected.PubsRelaxed, protected.Published)
	}
	if protected.Published+protected.PubsRejected != unprotected.Published {
		t.Errorf("published %d + rejected %d != offered %d",
			protected.Published, protected.PubsRejected, unprotected.Published)
	}
}
