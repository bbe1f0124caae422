package main

import (
	"testing"
	"time"
)

// smallRun is a short run on the 3-chain: two publishers, two
// subscribers at the edge.
func smallRun() loadCfg {
	return loadCfg{
		n: 400, pubs: 2, subs: 2, brokers: 3,
		sizeKB: 1, killBroker: -1, duration: 30 * time.Second,
	}
}

// TestRunDeliversEverything: a plain run delivers every publication to
// every subscriber.
func TestRunDeliversEverything(t *testing.T) {
	cfg := smallRun()
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.n * cfg.subs; r.deliveries != want {
		t.Errorf("deliveries = %d, want %d", r.deliveries, want)
	}
}

// TestRunDrainsThroughFaults: a run that crashes the middle broker,
// restarts it warm from its log and then takes its link to the edge
// down drains, its monitors detect the crash, and the reborn broker
// replays the subscriptions it had logged.
func TestRunDrainsThroughFaults(t *testing.T) {
	cfg := smallRun()
	cfg.killBroker = 1
	cfg.killAt = 50 * time.Millisecond
	cfg.restartAt = 300 * time.Millisecond
	cfg.linkDown = "1:2:400ms:500ms"
	cfg.hbInterval = 20 * time.Millisecond
	if err := cfg.validateHorizon(); err != nil {
		t.Fatal(err)
	}
	r, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.detections < 1 {
		t.Errorf("detections = %d, want ≥ 1", r.detections)
	}
	if r.link.RestartReplayedSubs == 0 {
		t.Error("the restarted broker replayed no subscription")
	}
}

// TestFaultFlagsShareTheSimSyntax: -link-down is bdps-sim's spec, and a
// schedule past the horizon is refused before the run.
func TestFaultFlagsShareTheSimSyntax(t *testing.T) {
	cfg := smallRun()
	cfg.duration = time.Second
	for spec, ok := range map[string]bool{
		"1:2:200ms:400ms": true,
		"1:2:400ms:200ms": false, // ends before it starts
		"1:2:200ms:2s":    false, // past -duration
		"1:2:200ms":       false,
	} {
		cfg.linkDown = spec
		if err := cfg.validateHorizon(); (err == nil) != ok {
			t.Errorf("-link-down %s: err = %v, want ok=%v", spec, err, ok)
		}
	}
}
