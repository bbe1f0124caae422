package simnet

import (
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/runtime"
	"bdps/internal/trace"
	"bdps/internal/vtime"
	"bdps/internal/workload"
)

func TestBrokerCrashLosesMessages(t *testing.T) {
	base := quickCfg(msg.PSD, core.MaxEB{}, 6)
	healthy, err := run(base)
	if err != nil {
		t.Fatal(err)
	}

	crashed := quickCfg(msg.PSD, core.MaxEB{}, 6)
	// Kill a layer-2 broker (id 4 is always layer 2 in the default
	// layered build) halfway through.
	crashed.Faults = []runtime.Fault{runtime.BrokerCrash{ID: 4, At: 5 * vtime.Minute}}
	broken, err := run(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if broken.DropsCrashed == 0 {
		t.Error("crash should lose messages")
	}
	if broken.ValidDeliveries >= healthy.ValidDeliveries {
		t.Errorf("crash should reduce deliveries: %d vs healthy %d",
			broken.ValidDeliveries, healthy.ValidDeliveries)
	}
	if broken.ValidDeliveries == 0 {
		t.Error("routes avoiding the dead broker should still deliver")
	}
}

func TestBrokerCrashValidation(t *testing.T) {
	cfg := quickCfg(msg.PSD, core.MaxEB{}, 3)
	cfg.Faults = []runtime.Fault{runtime.BrokerCrash{ID: 99, At: 0}}
	if _, err := run(cfg); err == nil {
		t.Error("crash of unknown broker should fail")
	}
}

func TestLinkDownDelaysButRecovers(t *testing.T) {
	clean := quickCfg(msg.PSD, core.MaxEB{}, 3)
	healthy, err := run(clean)
	if err != nil {
		t.Fatal(err)
	}

	cfg := quickCfg(msg.PSD, core.MaxEB{}, 3)
	// Take both directions of the first L1→L2 link down for 3 minutes.
	cfg.Faults = []runtime.Fault{
		runtime.LinkDown{From: 0, To: 4, Start: 2 * vtime.Minute, End: 5 * vtime.Minute},
		runtime.LinkDown{From: 4, To: 0, Start: 2 * vtime.Minute, End: 5 * vtime.Minute},
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidDeliveries == 0 {
		t.Fatal("outage must not kill the run")
	}
	if res.ValidDeliveries > healthy.ValidDeliveries {
		t.Errorf("outage should not improve delivery: %d vs %d",
			res.ValidDeliveries, healthy.ValidDeliveries)
	}
	// The run still terminates (engine drained) — implicit in Run
	// returning — and the link resumed service afterwards.
}

func TestLinkDownValidation(t *testing.T) {
	cfg := quickCfg(msg.PSD, core.MaxEB{}, 3)
	cfg.Faults = []runtime.Fault{runtime.LinkDown{From: 0, To: 1, Start: 0, End: 1}}
	if _, err := run(cfg); err == nil {
		t.Error("LinkDown on a non-arc should fail (brokers 0 and 1 are both layer 1)")
	}
	cfg.Faults = []runtime.Fault{runtime.LinkDown{From: 0, To: 4, Start: 5, End: 1}}
	if _, err := run(cfg); err == nil {
		t.Error("inverted window should fail")
	}
}

func TestTracerSeesFullLifecycle(t *testing.T) {
	cfg := quickCfg(msg.PSD, core.MaxEB{}, 3)
	cfg.Workload.Duration = 2 * vtime.Minute
	buf := &trace.Buffer{}
	cfg.Tracer = buf
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Count(trace.Publish) != res.Published {
		t.Errorf("publish events %d != published %d",
			buf.Count(trace.Publish), res.Published)
	}
	if buf.Count(trace.Arrive) != res.Receptions {
		t.Errorf("arrive events %d != receptions %d",
			buf.Count(trace.Arrive), res.Receptions)
	}
	if buf.Count(trace.Deliver) != res.ValidDeliveries+res.LateDeliveries {
		t.Errorf("deliver events %d != deliveries %d",
			buf.Count(trace.Deliver), res.ValidDeliveries+res.LateDeliveries)
	}
	// Every send is preceded by an enqueue for that message.
	if buf.Count(trace.Send) == 0 || buf.Count(trace.Enqueue) < buf.Count(trace.Send) {
		t.Errorf("sends %d vs enqueues %d", buf.Count(trace.Send), buf.Count(trace.Enqueue))
	}

	// A delivered message's timeline is physically consistent.
	for _, e := range buf.Events {
		if e.Kind == trace.Deliver {
			tl := trace.BuildTimeline(buf.ByMessage(e.MsgID))
			if !tl.Delivered {
				t.Fatal("timeline of delivered message not delivered")
			}
			if tl.Transmit <= 0 {
				t.Fatalf("delivered message with no transmission time: %+v", tl)
			}
			break
		}
	}
}

func TestPerSubscriberFairness(t *testing.T) {
	cfg := quickCfg(msg.PSD, core.MaxEB{}, 6)
	cfg.PerSubscriber = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Errorf("fairness = %v, want in (0,1]", res.Fairness)
	}
	// Without the flag the metric is absent.
	res2, err := run(quickCfg(msg.PSD, core.MaxEB{}, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fairness != 0 {
		t.Errorf("fairness without accounting = %v, want 0", res2.Fairness)
	}
	// Both runs must otherwise agree (accounting is observation-only).
	if res.ValidDeliveries != res2.ValidDeliveries || res.Receptions != res2.Receptions {
		t.Error("per-subscriber accounting changed the simulation")
	}
}

func TestBothScenarioRuns(t *testing.T) {
	cfg := quickCfg(msg.Both, core.MaxEB{}, 6)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidDeliveries == 0 {
		t.Fatal("PSD+SSD scenario delivered nothing")
	}
	if res.Earning == 0 {
		t.Error("PSD+SSD should earn subscriber prices")
	}
	// The combined bound is the stricter of the two, so earning cannot
	// beat pure SSD under identical workload laws.
	ssd, err := run(quickCfg(msg.SSD, core.MaxEB{}, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Earning > ssd.Earning*1.001 {
		t.Errorf("stricter combined bounds should not earn more: %v vs SSD %v",
			res.Earning, ssd.Earning)
	}
}

func TestWorkloadBothGeneratesBothBounds(t *testing.T) {
	c := workload.Config{Scenario: msg.Both, Seed: 1, Duration: 10 * vtime.Minute}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	subs := c.Subscriptions([]msg.NodeID{0})
	for _, s := range subs {
		if s.Deadline == 0 || s.Price == 0 {
			t.Fatal("Both subscriptions need deadlines and prices")
		}
	}
	pub := c.NewPublisher(0, 0)
	m, ok := pub.Next()
	if !ok || m.Allowed == 0 {
		t.Fatal("Both messages need publisher bounds")
	}
}
