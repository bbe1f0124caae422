// Package workload generates the paper's evaluation workload (§6.1):
// publishers emitting messages with uniform random attribute heads
// {A1=x1, A2=x2}, x ∈ (0,10), and subscriber populations with filters
// "A1<x1 && A2<x2" so each message interests 25% of subscribers on
// average. PSD runs draw the publisher's allowed delay uniformly from
// [10 s, 30 s]; SSD runs draw subscription deadlines from {10 s, 30 s,
// 60 s} with prices {3, 2, 1}.
package workload

import (
	"fmt"

	"bdps/internal/filter"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

// Config parameterizes one workload. Zero values select the paper's
// settings via setDefaults.
type Config struct {
	Scenario msg.Scenario
	Seed     uint64

	// RatePerMin is the publishing rate per publisher, messages/minute.
	RatePerMin float64
	// Duration is the publishing window; the paper uses 2 h.
	Duration vtime.Millis
	// FixedInterval publishes on a strict period instead of a Poisson
	// process (ablation; the paper only says "at a certain rate").
	FixedInterval bool

	// SizeKB is the message size; the paper uses 50 KB.
	SizeKB float64
	// AttrLo/AttrHi bound the uniform attribute values; paper: (0, 10).
	AttrLo, AttrHi float64

	// PSDDelayLo/Hi bound the publisher-specified delay; paper: 10–30 s.
	PSDDelayLo, PSDDelayHi vtime.Millis

	// SSDDeadlines and SSDPrices are the subscriber tiers; paper:
	// {10 s, 30 s, 60 s} at prices {3, 2, 1}.
	SSDDeadlines []vtime.Millis
	SSDPrices    []float64

	// SubsPerEdge is the number of subscribers per edge broker; paper: 10.
	SubsPerEdge int

	// HotspotFraction skews message content: this fraction of messages
	// draw their attributes from the low HotspotWidth share of the
	// attribute range instead of the full range. Low attribute values
	// match more "A < x" filters, so hot messages interest far more
	// subscribers — a popularity skew the paper's uniform workload lacks.
	// 0 (default) reproduces the paper.
	HotspotFraction float64
	// HotspotWidth is the hot region's share of the attribute range;
	// default 0.2.
	HotspotWidth float64

	// Churn adds a dynamic subscriber population on top of the static
	// one: Poisson subscribe arrivals with exponentially distributed
	// lifetimes (see Churn and ChurnEvents). Zero disables churn.
	Churn Churn

	// Zipf replaces the independent continuous filters with draws from a
	// finite Zipf-popular template universe (see Zipf). Zero keeps the
	// paper's continuous workload.
	Zipf Zipf

	// FlashCrowd overlays a correlated load spike (publish-rate burst on
	// the hot region + subscribe burst + diurnal ramp) on the base
	// workload (see FlashCrowd). Zero disables it.
	FlashCrowd FlashCrowd
}

// setDefaults fills the paper's values into unset fields.
func (c *Config) setDefaults() {
	if c.RatePerMin == 0 {
		c.RatePerMin = 10
	}
	if c.Duration == 0 {
		c.Duration = 2 * vtime.Hour
	}
	if c.SizeKB == 0 {
		c.SizeKB = 50
	}
	if c.AttrLo == 0 && c.AttrHi == 0 {
		c.AttrLo, c.AttrHi = 0, 10
	}
	if c.PSDDelayLo == 0 && c.PSDDelayHi == 0 {
		c.PSDDelayLo, c.PSDDelayHi = 10*vtime.Second, 30*vtime.Second
	}
	if len(c.SSDDeadlines) == 0 {
		c.SSDDeadlines = []vtime.Millis{10 * vtime.Second, 30 * vtime.Second, 60 * vtime.Second}
		c.SSDPrices = []float64{3, 2, 1}
	}
	if c.SubsPerEdge == 0 {
		c.SubsPerEdge = 10
	}
	if c.HotspotWidth == 0 {
		c.HotspotWidth = 0.2
	}
	c.Churn.setDefaults()
	c.Zipf.setDefaults()
	c.FlashCrowd.setDefaults(c.Duration)
}

// Validate checks cross-field consistency after defaulting.
func (c *Config) Validate() error {
	c.setDefaults()
	if c.RatePerMin < 0 {
		return fmt.Errorf("workload: negative publishing rate %v", c.RatePerMin)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("workload: non-positive duration %v", c.Duration)
	}
	if c.SizeKB <= 0 {
		return fmt.Errorf("workload: non-positive message size %v", c.SizeKB)
	}
	if len(c.SSDDeadlines) != len(c.SSDPrices) {
		return fmt.Errorf("workload: %d deadlines but %d prices",
			len(c.SSDDeadlines), len(c.SSDPrices))
	}
	if c.PSDDelayHi < c.PSDDelayLo {
		return fmt.Errorf("workload: PSD delay range [%v,%v] inverted", c.PSDDelayLo, c.PSDDelayHi)
	}
	if c.HotspotFraction < 0 || c.HotspotFraction > 1 {
		return fmt.Errorf("workload: hotspot fraction %v outside [0,1]", c.HotspotFraction)
	}
	if c.HotspotWidth <= 0 || c.HotspotWidth > 1 {
		return fmt.Errorf("workload: hotspot width %v outside (0,1]", c.HotspotWidth)
	}
	if err := c.Churn.validate(); err != nil {
		return err
	}
	if err := c.Zipf.validate(); err != nil {
		return err
	}
	if err := c.FlashCrowd.validate(c.Duration); err != nil {
		return err
	}
	return nil
}

// Subscriptions generates the subscriber population: SubsPerEdge
// subscribers per edge broker, each with filter "A1<x1 && A2<x2" and, in
// SSD, a uniformly chosen (deadline, price) tier. Deterministic in
// (Seed, edges).
func (c Config) Subscriptions(edges []msg.NodeID) []*msg.Subscription {
	c.setDefaults()
	s := stats.Derive(c.Seed, "workload/subs")
	var zt *zipfTemplates
	if c.Zipf.Enabled() {
		zt = c.zipfTemplates()
	}
	var out []*msg.Subscription
	id := msg.SubID(0)
	for _, edge := range edges {
		for j := 0; j < c.SubsPerEdge; j++ {
			var f *filter.Filter
			if zt != nil {
				f = zt.pick(s)
			} else {
				x1 := s.Uniform(c.AttrLo, c.AttrHi)
				x2 := s.Uniform(c.AttrLo, c.AttrHi)
				f = filter.And(filter.Lt("A1", x1), filter.Lt("A2", x2))
			}
			sub := &msg.Subscription{
				ID:     id,
				Edge:   edge,
				Filter: f,
			}
			if c.Scenario == msg.SSD || c.Scenario == msg.Both {
				tier := s.IntN(len(c.SSDDeadlines))
				sub.Deadline = c.SSDDeadlines[tier]
				sub.Price = c.SSDPrices[tier]
			}
			out = append(out, sub)
			id++
		}
	}
	return out
}

// Publisher generates one publisher's message sequence. Successive Next
// calls return messages in publication-time order until the publishing
// window closes.
type Publisher struct {
	cfg     Config
	id      msg.NodeID
	ingress msg.NodeID
	stream  *stats.Stream
	next    vtime.Millis
	seq     uint32
	period  vtime.Millis
}

// NewPublisher returns the index-th publisher, attached to the given
// ingress broker. Each publisher owns an independent random stream, so
// adding publishers never perturbs the others.
func (c Config) NewPublisher(index int, ingress msg.NodeID) *Publisher {
	c.setDefaults()
	p := &Publisher{
		cfg:     c,
		id:      msg.NodeID(index),
		ingress: ingress,
		stream:  stats.DeriveN(c.Seed, "workload/pub", index),
	}
	if c.RatePerMin > 0 {
		p.period = vtime.Minute / vtime.Millis(c.RatePerMin)
	}
	p.advance()
	return p
}

// advance draws the next publication instant.
func (p *Publisher) advance() {
	if p.cfg.RatePerMin <= 0 {
		p.next = vtime.Inf
		return
	}
	if p.cfg.FixedInterval {
		p.next += p.period
		return
	}
	fc := p.cfg.FlashCrowd
	if !fc.modulates() {
		p.next += p.stream.Exponential(p.period)
		return
	}
	// Time-varying rate (flash crowd / diurnal): a non-homogeneous
	// Poisson process via thinning — candidates drawn at the peak rate,
	// each accepted with probability rate(t)/peak. Gated on modulation so
	// unmodulated schedules reproduce the historical draws bit for bit.
	peak := fc.peak()
	for {
		p.next += p.stream.Exponential(p.period / peak)
		if p.next > p.cfg.Duration {
			return
		}
		if p.stream.Float64()*peak <= fc.multiplier(p.next) {
			return
		}
	}
}

// AttrsPerMessage is how many attributes a generated message carries:
// the paper's two numeric attributes, A1 and A2.
const AttrsPerMessage = 2

// Next returns the next message, or ok=false when the publishing window
// has closed. The message's Published field holds its publication time.
// Each message is allocated on its own; NextInto fills caller storage.
func (p *Publisher) Next() (*msg.Message, bool) {
	m := new(msg.Message)
	if !p.NextInto(m, make([]msg.Attr, AttrsPerMessage)) {
		return nil, false
	}
	return m, true
}

// NextInto is Next into caller storage: it overwrites *m with the next
// message, whose attribute set uses attrs (room for AttrsPerMessage) as
// its backing store, or returns false, touching neither, when the
// publishing window has closed. The draws are Next's.
func (p *Publisher) NextInto(m *msg.Message, attrs []msg.Attr) bool {
	if p.next > p.cfg.Duration {
		return false
	}
	attrHi := p.cfg.AttrHi
	if p.cfg.HotspotFraction > 0 && p.stream.Float64() < p.cfg.HotspotFraction {
		attrHi = p.cfg.AttrLo + p.cfg.HotspotWidth*(p.cfg.AttrHi-p.cfg.AttrLo)
	}
	if fc := p.cfg.FlashCrowd; fc.HotFraction > 0 && fc.inBurst(p.next) &&
		p.stream.Float64() < fc.HotFraction {
		// Burst publications concentrate on the hot region — the content
		// the flash-crowd subscribers came for.
		attrHi = p.cfg.AttrLo + p.cfg.HotspotWidth*(p.cfg.AttrHi-p.cfg.AttrLo)
	}
	*m = msg.Message{
		ID:        msg.MakeID(p.id, p.seq),
		Publisher: p.id,
		Ingress:   p.ingress,
		Published: p.next,
		SizeKB:    p.cfg.SizeKB,
	}
	m.Attrs.UseBuffer(attrs)
	m.Attrs.Set("A1", filter.Num(p.stream.Uniform(p.cfg.AttrLo, attrHi)))
	m.Attrs.Set("A2", filter.Num(p.stream.Uniform(p.cfg.AttrLo, attrHi)))
	if p.cfg.Scenario == msg.PSD || p.cfg.Scenario == msg.Both {
		m.Allowed = p.stream.Uniform(float64(p.cfg.PSDDelayLo), float64(p.cfg.PSDDelayHi))
	}
	p.seq++
	p.advance()
	return true
}
