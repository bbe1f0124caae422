package metrics

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bdps/internal/vtime"
)

func TestCollectorBasics(t *testing.T) {
	var c Collector
	c.PublishedAt(4, 0)
	c.PublishedAt(2, 0)
	c.Count(Receptions, 3)
	c.DeliveredAt(-1, 3, -1, 1500, true)
	c.DeliveredAt(-1, 2, -1, 2500, true)
	c.DeliveredAt(-1, 1, -1, 9000, false)
	c.Count(DropsExpired, 2)
	c.Count(DropsHopeless, 1)
	c.Count(DropsArrival, 3)

	r := c.Result()
	if r.Published != 2 || r.TotalTargets != 6 || r.Receptions != 3 {
		t.Errorf("counts wrong: %+v", r)
	}
	if r.ValidDeliveries != 2 || r.LateDeliveries != 1 {
		t.Errorf("deliveries wrong: %+v", r)
	}
	if r.Earning != 5 {
		t.Errorf("earning = %v, want 5", r.Earning)
	}
	if r.DropsExpired != 2 || r.DropsHopeless != 1 || r.DropsArrival != 3 {
		t.Errorf("drops wrong: %+v", r)
	}
	if got := r.DeliveryRate(); math.Abs(got-2.0/6) > 1e-12 {
		t.Errorf("delivery rate = %v, want 1/3", got)
	}
	if r.LatencyMeanMs != 2000 {
		t.Errorf("latency mean = %v, want 2000 (valid only)", r.LatencyMeanMs)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{Ledger: Ledger{Receptions: 123400}, Earning: 5600}
	if r.MessageNumberK() != 123.4 {
		t.Errorf("MessageNumberK = %v", r.MessageNumberK())
	}
	if r.EarningK() != 5.6 {
		t.Errorf("EarningK = %v", r.EarningK())
	}
	empty := Result{}
	if empty.DeliveryRate() != 0 {
		t.Error("empty delivery rate should be 0")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Label: "SSD/EB rate=10", Ledger: Ledger{ValidDeliveries: 5, TotalTargets: 10}}
	s := r.String()
	if !strings.Contains(s, "SSD/EB") || !strings.Contains(s, "50.0%") {
		t.Errorf("String = %q", s)
	}
}

// TestCountersCoverLedger keeps the three declarations of a counter —
// id, Ledger field, Counters row — in step: a field added without its
// id and row (or a row pointing at the wrong field) fails here.
func TestCountersCoverLedger(t *testing.T) {
	var l Ledger
	v := reflect.ValueOf(&l).Elem()
	if v.NumField() != int(NumCounters) {
		t.Fatalf("Ledger has %d fields, NumCounters is %d", v.NumField(), NumCounters)
	}
	names := make(map[string]bool)
	for id, info := range Counters {
		f := v.Type().Field(id)
		if f.Type.Kind() != reflect.Int {
			t.Errorf("Ledger.%s is %s, want int", f.Name, f.Type)
		}
		if info.Field == nil {
			t.Fatalf("counter %d (Ledger.%s) has no table row", id, f.Name)
		}
		if got, want := info.Field(&l), v.Field(id).Addr().Interface().(*int); got != want {
			t.Errorf("row %d (%q) does not point at field %d (Ledger.%s)", id, info.Name, id, f.Name)
		}
		if info.Name == "" || info.Help == "" || names[info.Name] {
			t.Errorf("row %d (Ledger.%s): name %q empty or repeated, or help empty", id, f.Name, info.Name)
		}
		names[info.Name] = true
	}
}

func TestMean(t *testing.T) {
	rs := []Result{
		{Label: "x", Earning: 200, LatencyMeanMs: 10, PeakQueue: 5},
		{Label: "y", Earning: 400, LatencyMeanMs: 30, PeakQueue: 15},
	}
	for _, info := range Counters {
		*info.Field(&rs[0].Ledger) = 10
		*info.Field(&rs[1].Ledger) = 20
	}
	m := Mean(rs)
	if m.Label != "x" {
		t.Error("label should come from the first result")
	}
	for _, info := range Counters {
		if got := *info.Field(&m.Ledger); got != 15 {
			t.Errorf("mean %s = %d, want 15", info.Name, got)
		}
	}
	if m.Earning != 300 || m.LatencyMeanMs != 20 || m.PeakQueue != 10 {
		t.Errorf("averaged values wrong: %+v", m)
	}
	if got := m.DeliveryRate(); math.Abs(got-1) > 1e-12 {
		t.Errorf("mean delivery rate = %v, want 1 (15 valid of 15 targets)", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	m := Mean(nil)
	if m.Published != 0 || m.ValidDeliveries != 0 || m.Timeline != nil || m.Label != "" {
		t.Error("Mean(nil) should be zero Result")
	}
}

func TestMeanSingle(t *testing.T) {
	r := Result{Ledger: Ledger{Published: 7}, Earning: 3.5}
	if m := Mean([]Result{r}); m.Published != 7 || m.Earning != 3.5 {
		t.Error("Mean of one result should be itself")
	}
}

// ledgerEvent is one reception and one delivery, as a writer records
// them: integer prices and latencies, so sums are exact in any order.
type ledgerEvent struct {
	receptions         int
	sub                int32
	price              float64
	published, latency vtime.Millis
	valid              bool
}

func ledgerEvents(n int) []ledgerEvent {
	evs := make([]ledgerEvent, n)
	for i := range evs {
		evs[i] = ledgerEvent{
			receptions: 1 + i%3, sub: int32(i % 17), price: float64(1 + i%4),
			published: vtime.Millis(i % 80), latency: vtime.Millis(10 + i%1000), valid: i%5 != 0,
		}
	}
	return evs
}

// feed records events on c.
func feed(c *Collector, evs []ledgerEvent) {
	for _, ev := range evs {
		c.Count(Receptions, ev.receptions)
		c.DeliveredAt(ev.sub, ev.price, ev.published, ev.latency, ev.valid)
	}
}

// shapedCollector is a driver-side collector: a timeline, a subscriber
// space one id wider than the events use, and the publication side.
func shapedCollector() *Collector {
	c := &Collector{}
	c.EnableTimeline(10, 100)
	c.EnablePerSubscriber(18)
	for i := range 40 {
		c.PublishedToAt([]int32{int32(i % 17), int32((i + 5) % 17), 17}, vtime.Millis(i*2))
	}
	c.Detection(250)
	return c
}

// TestCollectorConcurrentAndMergedEqualSerial: eight writers on one
// collector, and eight per-writer collectors merged into the driver's,
// both end with the serial collector's result — counters, earning,
// latencies, timeline and fairness.
func TestCollectorConcurrentAndMergedEqualSerial(t *testing.T) {
	const writers = 8
	evs := ledgerEvents(writers * 2000)
	part := func(w int) []ledgerEvent { return evs[w*2000 : (w+1)*2000] }

	serial := shapedCollector()
	feed(serial, evs)
	want := serial.Result()
	if want.Fairness == 0 || len(want.Timeline) != 8 || want.ValidDeliveries == 0 {
		t.Fatalf("serial result does not exercise fairness and timeline: %+v", want)
	}

	shared := shapedCollector()
	merged := shapedCollector()
	parts := make([]*Collector, writers)
	var wg sync.WaitGroup
	for w := range writers {
		parts[w] = merged.Blank()
		wg.Add(2)
		go func() { defer wg.Done(); feed(shared, part(w)) }()
		go func() { defer wg.Done(); feed(parts[w], part(w)) }()
	}
	wg.Wait()
	for _, p := range parts {
		merged.Merge(p)
	}
	for name, c := range map[string]*Collector{"concurrent": shared, "merged": merged} {
		if got := c.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s result differs from serial:\n got %#v\nwant %#v", name, got, want)
		}
	}
}

func TestDeliveredAtAllocates0(t *testing.T) {
	c := shapedCollector()
	c.DeliveredAt(1, 1, 5, 100, true)
	if a := testing.AllocsPerRun(1000, func() { c.DeliveredAt(3, 2, 15, 1234, true) }); a != 0 {
		t.Errorf("DeliveredAt allocates %v times after the first sample, want 0", a)
	}
}
