package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bdps/internal/core"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/topology"
)

// writeDeployment writes a three-broker chain's overlay JSON and a peers
// file into a fresh directory and returns the two paths.
func writeDeployment(t *testing.T) (overlay, peers string, ov *topology.Overlay) {
	t.Helper()
	g := topology.NewGraph(3)
	for _, l := range [][2]msg.NodeID{{0, 1}, {1, 2}} {
		if err := g.AddLink(l[0], l[1], stats.Normal{Mean: 40, Sigma: 4}); err != nil {
			t.Fatal(err)
		}
	}
	ov = &topology.Overlay{Graph: g, Ingress: []msg.NodeID{0}, Edges: []msg.NodeID{2}}
	dir := t.TempDir()
	overlay, peers = filepath.Join(dir, "overlay.json"), filepath.Join(dir, "peers.json")
	f, err := os.Create(overlay)
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	addrs := `{"0": "127.0.0.1:7000", "1": "127.0.0.1:7001", "2": "127.0.0.1:7002"}`
	if err := os.WriteFile(peers, []byte(addrs), 0o644); err != nil {
		t.Fatal(err)
	}
	return overlay, peers, ov
}

// TestNewBrokerRunsAPlanNode: the command line builds broker -id of a
// plan over the overlay file — its flags the plan's config, no
// subscriptions and no schedule — with the peers file's addresses.
func TestNewBrokerRunsAPlanNode(t *testing.T) {
	overlay, peers, ov := writeDeployment(t)
	b, err := newBroker([]string{"-id", "1", "-overlay", overlay, "-peers", peers,
		"-scenario", "ssd", "-strategy", "rl", "-pd", "3", "-seed", "9", "-timescale", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.node.Stop()
	if b.node.ID() != 1 || b.plan.Brokers[1] == nil {
		t.Fatalf("built broker %d; the plan holds broker 1: %v", b.node.ID(), b.plan.Brokers[1] != nil)
	}
	if got, want := b.plan.Overlay.Graph.SortedArcs(), ov.Graph.SortedArcs(); !slices.Equal(got, want) {
		t.Errorf("plan overlay arcs %v, the file's %v", got, want)
	}
	for _, l := range b.plan.Links {
		if want, _ := ov.Graph.Rate(l.From, l.To); l.Truth != want || b.plan.Beliefs(l.From, l.To) != want {
			t.Errorf("link %d→%d: truth %v, belief %v; the file's rate %v", l.From, l.To, l.Truth, b.plan.Beliefs(l.From, l.To), want)
		}
	}
	cfg := b.plan.Cfg
	if cfg.Scenario != msg.SSD || cfg.Strategy != (core.RL{}) || cfg.Params.PD != 3 || cfg.Seed != 9 || cfg.TimeScale != 0.5 {
		t.Errorf("plan config %+v does not carry the flags", cfg)
	}
	if len(b.plan.Subs) != 0 || len(b.plan.Pubs) != 0 || len(b.plan.SubEvents) != 0 {
		t.Errorf("plan brings %d subscriptions, %d publications, %d subscription events; want none",
			len(b.plan.Subs), len(b.plan.Pubs), len(b.plan.SubEvents))
	}
	if b.peers[2] != "127.0.0.1:7002" || b.listen != "" {
		t.Errorf("peers %v, listen %q", b.peers, b.listen)
	}
}

// TestNewBrokerRefusesUnknownScenario: an unknown -scenario fails the
// build before any node exists.
func TestNewBrokerRefusesUnknownScenario(t *testing.T) {
	overlay, peers, _ := writeDeployment(t)
	if b, err := newBroker([]string{"-id", "1", "-overlay", overlay, "-peers", peers, "-scenario", "xyz"}); err == nil {
		b.node.Stop()
		t.Fatal("-scenario xyz was accepted")
	}
}
