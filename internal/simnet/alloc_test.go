package simnet

import (
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/topology"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

// cellPhases is one simulator cell's heap allocations (objects), phase by
// phase, as runtime.Run performs them.
type cellPhases struct {
	assemble, schedule, deploy, run uint64
	pubs, brokers, links            int
}

func (c cellPhases) total() uint64 { return c.assemble + c.schedule + c.deploy + c.run }

func mallocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measureCell runs one cell step by step, counting each phase's
// allocations with the collector off, so pooled objects survive and the
// counts repeat. The schedule's share is NewPlan's count less that of an
// Assemble of the same config.
func measureCell(t *testing.T, cfg runtime.Config) cellPhases {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var c cellPhases
	m0 := mallocs()
	if _, err := runtime.Assemble(cfg); err != nil {
		t.Fatal(err)
	}
	m1 := mallocs()
	p, err := runtime.NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2 := mallocs()
	n, err := deploy(p)
	if err != nil {
		t.Fatal(err)
	}
	m3 := mallocs()
	p.AccountPublications()
	if err := n.Inject(p.Pubs); err != nil {
		t.Fatal(err)
	}
	n.Drain()
	if r := p.Metrics.Result(); r.Published != len(p.Pubs) || r.ValidDeliveries == 0 {
		t.Fatalf("cell did not run: published %d of %d, valid %d", r.Published, len(p.Pubs), r.ValidDeliveries)
	}
	m4 := mallocs()
	c.assemble = m1 - m0
	c.schedule = (m2 - m1) - c.assemble
	c.deploy, c.run = m3-m2, m4-m3
	c.pubs, c.brokers, c.links = len(p.Pubs), len(p.Brokers), len(p.Links)
	return c
}

// The allocation budget of one simulator cell, the unit of the paper's
// figure grid: a cell allocates for its publications, and for its
// brokers and links only a small constant each. (Before the slabs and
// the shared Processor the cell below took 3.04 objects per publication
// to schedule, 40 per broker to assemble, 6.8 per link to deploy and
// 8.2 per publication in all.)
const (
	// planPerPub and planPerBroker bound NewPlan: the publications and
	// their attributes come from exact-size slabs, so the schedule's
	// share is per publisher, and Assemble's is the routing tables and
	// brokers.
	planPerPub    = 0.1
	planPerBroker = 20
	// deployPerLink bounds Deploy's objects per directed link.
	deployPerLink = 3
	// cellPerPub bounds the whole cell's objects per publication.
	cellPerPub = 3
)

// TestCellAllocBudget runs one PSD/EB/rate-18, 10-minute cell on the
// paper's overlay, as a figure or the sim_paper benchmark runs it, and
// holds each phase to its budget.
func TestCellAllocBudget(t *testing.T) {
	ov, err := topology.BuildLayered(topology.LayeredConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Config{Seed: 1, Scenario: msg.PSD, RatePerMin: 18, Duration: 10 * vtime.Minute}
	cfg := runtime.Config{
		Seed: 1, Scenario: msg.PSD, Strategy: core.MaxEB{}, Params: core.DefaultParams(),
		Overlay: ov, Subscriptions: wl.Subscriptions(ov.Edges), Workload: wl,
	}
	measureCell(t, cfg) // warm the pools and lazily built globals
	c := measureCell(t, cfg)
	pubs := float64(c.pubs)
	t.Logf("%d publications, %d brokers, %d links", c.pubs, c.brokers, c.links)
	t.Logf("assemble %d (%.1f/broker), schedule %d (%.2f/pub), deploy %d (%.2f/link), run %d (%.2f/pub); cell %.2f/pub",
		c.assemble, float64(c.assemble)/float64(c.brokers), c.schedule, float64(c.schedule)/pubs,
		c.deploy, float64(c.deploy)/float64(c.links), c.run, float64(c.run)/pubs, float64(c.total())/pubs)
	if raceEnabled {
		t.Skip("allocation counts are not judged under the race detector")
	}
	if c.pubs < 400 {
		t.Fatalf("only %d publications: the cell is too small to judge per-publication costs", c.pubs)
	}
	planBudget := planPerPub*pubs + planPerBroker*float64(c.brokers)
	if got := float64(c.assemble + c.schedule); got > planBudget {
		t.Errorf("NewPlan allocated %.0f objects, budget %.0f (%.2f per publication + %d per broker)",
			got, planBudget, planPerPub, planPerBroker)
	}
	if got := float64(c.deploy) / float64(c.links); got > deployPerLink {
		t.Errorf("Deploy allocated %.2f objects per link, budget %d", got, deployPerLink)
	}
	if got := float64(c.total()) / pubs; got > cellPerPub {
		t.Errorf("the cell allocated %.2f objects per publication, budget %d", got, cellPerPub)
	}
}
