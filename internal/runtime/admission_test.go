package runtime

import (
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// flashCfg is the admission test bed: the congested PSD point with the
// paper's relaxed bounds and a mid-run flash crowd (6× boost plus a
// correlated subscribe burst) — the A11 ablation cell, in miniature.
func flashCfg() Config {
	cfg := Config{
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
	return cfg
}

// TestIngressLoadModel pins the per-ingress load model's semantics:
// the virtual backlog drains at wall rate, the EWMA gap converges
// toward a steady arrival spacing, and the modeled wait inflates the
// backlog when arrivals outpace service.
func TestIngressLoadModel(t *testing.T) {
	ld := &ingressLoad{}
	half := 10 * vtime.Second

	// First arrival only seeds the clock.
	ld.observe(0, half)
	if ld.gap != 0 {
		t.Fatalf("gap after first arrival = %v, want 0", ld.gap)
	}
	// Steady 2 s arrivals: the EWMA gap must converge to 2 s.
	for at := 2 * vtime.Second; at <= 2*vtime.Minute; at += 2 * vtime.Second {
		ld.drain(at)
		ld.observe(at, half)
	}
	if ld.gap < 1900 || ld.gap > 2100 {
		t.Errorf("EWMA gap = %v ms after steady 2 s arrivals, want ≈2000", ld.gap)
	}

	// Backlog drains one-for-one with elapsed time.
	ld.backlog = 5 * vtime.Second
	ld.drain(ld.last + 3*vtime.Second)
	ld.last += 3 * vtime.Second
	if ld.backlog != 2*vtime.Second {
		t.Errorf("backlog after 3 s drain = %v, want 2000", ld.backlog)
	}
	ld.drain(ld.last + vtime.Minute)
	if ld.backlog != 0 {
		t.Errorf("backlog must floor at 0, got %v", ld.backlog)
	}

	// Under saturation (service > gap) the wait inflates by the
	// utilization ratio; below saturation it is the raw backlog.
	ld.backlog = 4 * vtime.Second
	if w := ld.wait(vtime.Second); w != 4*vtime.Second {
		t.Errorf("uncongested wait = %v, want raw backlog 4000", w)
	}
	if w := ld.wait(4 * vtime.Second); w != 8*vtime.Second {
		t.Errorf("saturated wait = %v, want 2x-inflated 8000", w)
	}
}

// TestAdmitWorkloadFiltersPlan pins the plan-side sweep end to end: the
// filtered plan and the SLO ledger must tell the same story — kept
// publications equal admitted+relaxed, the per-bound ledger sums to the
// totals, offered load is conserved against an unprotected plan, the
// subscribe burst is thinned, and the whole sweep is deterministic.
func TestAdmitWorkloadFiltersPlan(t *testing.T) {
	base, err := NewPlan(flashCfg())
	if err != nil {
		t.Fatal(err)
	}

	cfg := flashCfg()
	cfg.Admission = Admission{Enabled: true, Shed: true, MaxQueue: 8}
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Metrics.Result()

	if r.PubsRejected == 0 {
		t.Fatal("flash crowd at rate 18 must drive rejections")
	}
	if got := r.PubsAdmitted + r.PubsRelaxed; got != len(p.Pubs) {
		t.Errorf("admitted %d + relaxed %d = %d, want kept publications %d",
			r.PubsAdmitted, r.PubsRelaxed, got, len(p.Pubs))
	}
	// Offered load is conserved: every publication the unprotected plan
	// would inject is either kept or counted rejected.
	if offered := len(p.Pubs) + r.PubsRejected; offered != len(base.Pubs) {
		t.Errorf("kept %d + rejected %d = %d, want offered %d",
			len(p.Pubs), r.PubsRejected, offered, len(base.Pubs))
	}
	// The per-bound ledger partitions the same decisions.
	var adm, rel, rej int
	for _, b := range r.BoundLedger {
		adm += b.Admitted
		rel += b.Relaxed
		rej += b.Rejected
	}
	if adm != r.PubsAdmitted || rel != r.PubsRelaxed || rej != r.PubsRejected {
		t.Errorf("ledger sums (%d, %d, %d) disagree with totals (%d, %d, %d)",
			adm, rel, rej, r.PubsAdmitted, r.PubsRelaxed, r.PubsRejected)
	}
	// The correlated subscribe burst is load too: some of it is turned
	// away, and every rejected subscriber vanishes from the event plan.
	if r.SubsRejected == 0 {
		t.Error("subscribe burst should see rejections under the flash crowd")
	}
	joins := 0
	for _, ev := range p.SubEvents {
		if !ev.Unsub {
			joins++
		}
	}
	baseJoins := 0
	for _, ev := range base.SubEvents {
		if !ev.Unsub {
			baseJoins++
		}
	}
	if joins+r.SubsRejected != baseJoins {
		t.Errorf("kept joins %d + rejected %d != offered joins %d",
			joins, r.SubsRejected, baseJoins)
	}

	// Determinism: the ledger is a pure function of the plan.
	again, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2 := again.Metrics.Result()
	if r.PubsAdmitted != r2.PubsAdmitted || r.PubsRelaxed != r2.PubsRelaxed ||
		r.PubsRejected != r2.PubsRejected || r.SubsRejected != r2.SubsRejected {
		t.Errorf("admission sweep not deterministic: %+v vs %+v",
			[4]int{r.PubsAdmitted, r.PubsRelaxed, r.PubsRejected, r.SubsRejected},
			[4]int{r2.PubsAdmitted, r2.PubsRelaxed, r2.PubsRejected, r2.SubsRejected})
	}

	// Disabled admission leaves the plan untouched and the ledger empty.
	br := base.Metrics.Result()
	if br.PubsAdmitted != 0 || br.PubsRelaxed != 0 || br.PubsRejected != 0 || br.SubsRejected != 0 {
		t.Errorf("disabled admission fed the ledger: %+v", br)
	}
}

// BenchmarkAdmission measures the plan-side admission sweep itself —
// the per-publication cost of the online load model plus the paper's
// CDF feasibility test, over the flash-crowd schedule.
func BenchmarkAdmission(b *testing.B) {
	cfg := flashCfg()
	p, err := NewPlan(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Keep pristine copies: the sweep compacts Plan.Pubs/SubEvents in
	// place and rewrites relaxed bounds on the shared messages.
	pubs := append([]*msg.Message(nil), p.Pubs...)
	allowed := make([]vtime.Millis, len(pubs))
	for i, m := range pubs {
		allowed[i] = m.Allowed
	}
	events := append([]workload.SubEvent(nil), p.SubEvents...)
	p.Cfg.Admission = Admission{Enabled: true, Shed: true, MaxQueue: 8}
	p.Cfg.Admission.setDefaults()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p.Pubs = append(p.Pubs[:0], pubs...)
		for j, m := range pubs {
			m.Allowed = allowed[j]
		}
		p.SubEvents = append(p.SubEvents[:0], events...)
		b.StartTimer()
		p.admitWorkload()
	}
	b.ReportMetric(float64(len(pubs)), "pubs/op")
}
