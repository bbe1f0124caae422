package workload_test

import (
	"testing"

	"bdps/internal/core"
	"bdps/internal/filter"
	"bdps/internal/metrics"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// TestAccountPublicationsMatchesInterested: the publication accounting
// counts every publication's interested subscribers through one scan of
// the static population; each count must equal the oracle's —
// Interested over the 160 static subscribers plus the churn subscribers
// active at the publication's instant — with per-subscriber accounting
// off and on. Beside the workload's publications, messages sit exactly
// on subscriptions' bounds (the rows the scan flags and confirms) or
// lack an attribute (the ones it leaves to the per-row loop).
func TestAccountPublicationsMatchesInterested(t *testing.T) {
	for _, perSub := range []bool{false, true} {
		p, err := runtime.NewPlan(runtime.Config{
			Seed:          3,
			Scenario:      msg.PSD,
			Strategy:      core.MaxEB{},
			PerSubscriber: perSub,
			Workload: workload.Config{
				RatePerMin: 12,
				Duration:   10 * vtime.Minute,
				Churn:      workload.Churn{RatePerMin: 60, HalfLife: vtime.Minute},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Subs) != 160 || len(p.SubEvents) == 0 {
			t.Fatalf("%d static subscribers and %d churn events, want 160 and some", len(p.Subs), len(p.SubEvents))
		}
		pubs := append([]*msg.Message(nil), p.Pubs...)
		for i, s := range p.Subs[:20] {
			at := p.Pubs[i*len(p.Pubs)/20].Published
			var on msg.AttrSet
			for _, pr := range s.Filter.DNF()[0] {
				on.Set(pr.Attr, pr.Val)
			}
			pubs = append(pubs,
				&msg.Message{Published: at, Attrs: on},
				&msg.Message{Published: at, Attrs: msg.NumAttrs(map[string]float64{"A1": 1})})
		}
		var scratch filter.MatchScratch
		for _, m := range pubs {
			want := workload.Interested(&scratch, p.Subs, m)
			active := map[msg.SubID]*msg.Subscription{}
			for _, ev := range p.SubEvents {
				if ev.At > m.Published {
					break
				}
				if ev.Unsub {
					delete(active, ev.Sub.ID)
				} else {
					active[ev.Sub.ID] = ev.Sub
				}
			}
			for _, s := range active {
				if s.Filter.Match(&m.Attrs) {
					want++
				}
			}
			one := *p
			one.Pubs = []*msg.Message{m}
			one.Metrics = &metrics.Collector{}
			one.AccountPublications()
			if got := one.Metrics.Result().TotalTargets; got != want {
				t.Fatalf("per-subscriber %v, %v at %v: accounted %d interested, oracle %d", perSub, m.Attrs, m.Published, got, want)
			}
		}
	}
}
