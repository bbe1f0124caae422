package workload

import (
	"math"
	"testing"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/vtime"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.RatePerMin != 10 || c.Duration != 2*vtime.Hour || c.SizeKB != 50 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.SubsPerEdge != 10 || len(c.SSDDeadlines) != 3 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		{RatePerMin: -1},
		{Duration: -5},
		{SizeKB: -1},
		{SSDDeadlines: []vtime.Millis{1, 2}, SSDPrices: []float64{1}},
		{PSDDelayLo: 30 * vtime.Second, PSDDelayHi: 10 * vtime.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestSubscriptionsShape(t *testing.T) {
	c := Config{Scenario: msg.SSD, Seed: 1}
	edges := []msg.NodeID{16, 17, 18}
	subs := c.Subscriptions(edges)
	if len(subs) != 30 {
		t.Fatalf("got %d subs, want 30", len(subs))
	}
	tierPrices := map[vtime.Millis]float64{
		10 * vtime.Second: 3, 30 * vtime.Second: 2, 60 * vtime.Second: 1,
	}
	perEdge := map[msg.NodeID]int{}
	for _, s := range subs {
		perEdge[s.Edge]++
		want, ok := tierPrices[s.Deadline]
		if !ok {
			t.Errorf("sub %d deadline %v not a paper tier", s.ID, s.Deadline)
		} else if s.Price != want {
			t.Errorf("sub %d price %v, want %v for deadline %v", s.ID, s.Price, want, s.Deadline)
		}
	}
	for _, e := range edges {
		if perEdge[e] != 10 {
			t.Errorf("edge %d has %d subs, want 10", e, perEdge[e])
		}
	}
}

func TestSubscriptionsPSDHaveNoPrice(t *testing.T) {
	c := Config{Scenario: msg.PSD, Seed: 1}
	for _, s := range c.Subscriptions([]msg.NodeID{5}) {
		if s.Deadline != 0 || s.Price != 0 {
			t.Errorf("PSD sub has deadline/price: %+v", s)
		}
	}
}

func TestSubscriptionsDeterministic(t *testing.T) {
	c := Config{Scenario: msg.SSD, Seed: 42}
	a := c.Subscriptions([]msg.NodeID{1, 2})
	b := c.Subscriptions([]msg.NodeID{1, 2})
	for i := range a {
		if a[i].Filter.String() != b[i].Filter.String() ||
			a[i].Deadline != b[i].Deadline || a[i].Price != b[i].Price {
			t.Fatal("same seed should reproduce subscriptions")
		}
	}
}

func TestMatchProbabilityNearQuarter(t *testing.T) {
	// Paper: on average (1/2)² = 25% of subscribers match a message.
	c := Config{Seed: 7}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	subs := c.Subscriptions([]msg.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
		10, 11, 12, 13, 14, 15})
	pub := c.NewPublisher(0, 0)
	total, matched := 0, 0
	var scratch filter.MatchScratch
	for i := 0; i < 2000; i++ {
		m, ok := pub.Next()
		if !ok {
			break
		}
		matched += Interested(&scratch, subs, m)
		total += len(subs)
	}
	frac := float64(matched) / float64(total)
	if math.Abs(frac-0.25) > 0.03 {
		t.Errorf("match fraction = %.3f, want ≈0.25", frac)
	}
}

func TestPublisherPoissonRate(t *testing.T) {
	c := Config{Seed: 3, RatePerMin: 10, Duration: 2 * vtime.Hour}
	pub := c.NewPublisher(0, 0)
	count := 0
	var last vtime.Millis
	for {
		m, ok := pub.Next()
		if !ok {
			break
		}
		if m.Published < last {
			t.Fatal("publication times must be nondecreasing")
		}
		last = m.Published
		count++
	}
	// Expected 10/min × 120 min = 1200; Poisson sd ≈ 35.
	if count < 1050 || count > 1350 {
		t.Errorf("published %d messages, want ≈1200", count)
	}
	if last > 2*vtime.Hour {
		t.Error("publication after the window")
	}
}

func TestPublisherFixedInterval(t *testing.T) {
	c := Config{Seed: 3, RatePerMin: 6, Duration: 10 * vtime.Minute, FixedInterval: true}
	pub := c.NewPublisher(0, 0)
	var times []vtime.Millis
	for {
		m, ok := pub.Next()
		if !ok {
			break
		}
		times = append(times, m.Published)
	}
	if len(times) != 60 {
		t.Fatalf("got %d messages, want exactly 60", len(times))
	}
	for i := 1; i < len(times); i++ {
		if math.Abs(float64(times[i]-times[i-1])-10000) > 1e-9 {
			t.Fatalf("interval %v, want 10 s", times[i]-times[i-1])
		}
	}
}

func TestPublisherZeroRate(t *testing.T) {
	c := Config{Seed: 1, RatePerMin: -0.0, Duration: vtime.Hour}
	c.RatePerMin = 0 // explicit zero means default 10; force off with negative? No: use tiny window instead.
	pub := c.NewPublisher(0, 0)
	n := 0
	for {
		if _, ok := pub.Next(); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Error("default rate should produce messages")
	}
}

func TestPublisherPSDBounds(t *testing.T) {
	c := Config{Scenario: msg.PSD, Seed: 5, Duration: vtime.Hour}
	pub := c.NewPublisher(1, 3)
	for i := 0; i < 200; i++ {
		m, ok := pub.Next()
		if !ok {
			break
		}
		if m.Allowed < 10*vtime.Second || m.Allowed > 30*vtime.Second {
			t.Fatalf("PSD allowed %v outside [10s,30s]", m.Allowed)
		}
		if m.Ingress != 3 || m.Publisher != 1 {
			t.Fatal("publisher identity wrong")
		}
		if m.SizeKB != 50 {
			t.Fatal("size wrong")
		}
		a1, ok1 := m.Attrs.Attr("A1")
		a2, ok2 := m.Attrs.Attr("A2")
		if !ok1 || !ok2 {
			t.Fatal("attributes missing")
		}
		if a1.Num < 0 || a1.Num >= 10 || a2.Num < 0 || a2.Num >= 10 {
			t.Fatalf("attributes out of range: %v", m.Attrs)
		}
	}
}

func TestPublisherSSDNoAllowed(t *testing.T) {
	c := Config{Scenario: msg.SSD, Seed: 5, Duration: vtime.Hour}
	pub := c.NewPublisher(0, 0)
	m, ok := pub.Next()
	if !ok {
		t.Fatal("no message")
	}
	if m.Allowed != 0 {
		t.Errorf("SSD message has publisher bound %v, want 0", m.Allowed)
	}
}

// TestNextIntoFillsASlab: publications filled into one message slab
// and capacity-capped windows of one attribute slab, as a plan's
// schedule carves them, are the messages Next returns from the same
// stream, and no message's attributes alias another's.
func TestNextIntoFillsASlab(t *testing.T) {
	c := Config{Seed: 3, Scenario: msg.Both, RatePerMin: 30, Duration: 5 * vtime.Minute, HotspotFraction: 0.3}
	ref, pub := c.NewPublisher(2, 7), c.NewPublisher(2, 7)
	var want []*msg.Message
	for m, ok := ref.Next(); ok; m, ok = ref.Next() {
		want = append(want, m)
	}
	if len(want) < 100 {
		t.Fatalf("only %d publications", len(want))
	}
	msgs := make([]msg.Message, len(want))
	attrs := make([]msg.Attr, len(want)*AttrsPerMessage)
	for k := range msgs {
		if !pub.NextInto(&msgs[k], attrs[k*AttrsPerMessage:(k+1)*AttrsPerMessage:(k+1)*AttrsPerMessage]) {
			t.Fatalf("NextInto closed after %d of %d publications", k, len(want))
		}
	}
	var spare msg.Message
	if pub.NextInto(&spare, make([]msg.Attr, AttrsPerMessage)) {
		t.Fatal("NextInto outlived Next")
	}
	for k := range msgs {
		got, w := &msgs[k], want[k]
		if got.ID != w.ID || got.Publisher != w.Publisher || got.Ingress != w.Ingress ||
			got.Published != w.Published || got.Allowed != w.Allowed || got.SizeKB != w.SizeKB ||
			got.Attrs.String() != w.Attrs.String() {
			t.Fatalf("publication %d: NextInto %v %v, Next %v %v", k, got, got.Attrs, w, w.Attrs)
		}
	}
}

func TestPublishersIndependentStreams(t *testing.T) {
	c := Config{Seed: 9, Duration: vtime.Hour}
	p0 := c.NewPublisher(0, 0)
	p1 := c.NewPublisher(1, 1)
	m0, _ := p0.Next()
	m1, _ := p1.Next()
	if m0.Published == m1.Published {
		t.Error("distinct publishers should have distinct arrival processes")
	}
	if m0.ID == m1.ID {
		t.Error("message ids must be globally unique")
	}
}

func TestHotspotSkewsInterest(t *testing.T) {
	uniform := Config{Seed: 7}
	if err := uniform.Validate(); err != nil {
		t.Fatal(err)
	}
	hot := Config{Seed: 7, HotspotFraction: 0.75}
	if err := hot.Validate(); err != nil {
		t.Fatal(err)
	}
	edges := []msg.NodeID{0, 1, 2, 3}
	subs := uniform.Subscriptions(edges)

	avgInterest := func(c Config) float64 {
		pub := c.NewPublisher(0, 0)
		total, n := 0, 0
		var scratch filter.MatchScratch
		for i := 0; i < 1500; i++ {
			m, ok := pub.Next()
			if !ok {
				break
			}
			total += Interested(&scratch, subs, m)
			n++
		}
		return float64(total) / float64(n)
	}
	u, h := avgInterest(uniform), avgInterest(hot)
	if h <= u*1.5 {
		t.Errorf("hotspot interest %v should well exceed uniform %v", h, u)
	}
}

func TestHotspotValidation(t *testing.T) {
	bad := Config{HotspotFraction: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("fraction > 1 should fail")
	}
	bad2 := Config{HotspotFraction: 0.5, HotspotWidth: 2}
	if err := bad2.Validate(); err == nil {
		t.Error("width > 1 should fail")
	}
}

func TestPublisherIDsUnique(t *testing.T) {
	c := Config{Seed: 2, Duration: 30 * vtime.Minute}
	pub := c.NewPublisher(2, 0)
	seen := map[msg.ID]bool{}
	for {
		m, ok := pub.Next()
		if !ok {
			break
		}
		if seen[m.ID] {
			t.Fatalf("duplicate id %d", m.ID)
		}
		seen[m.ID] = true
	}
}

// Interested counts the subscriptions whose filters match the message —
// the tsᵢ term of eq. (1) — one MatchResolved per filter. It is the
// oracle for the publication accounting's scan (runtime's
// Plan.AccountPublications), which counts the same population through
// bound columns.
func Interested(s *filter.MatchScratch, subs []*msg.Subscription, m *msg.Message) int {
	s.Resolve(&m.Attrs)
	n := 0
	for _, sub := range subs {
		if sub.Filter.MatchResolved(s, &m.Attrs) {
			n++
		}
	}
	return n
}
