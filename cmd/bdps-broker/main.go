// Command bdps-broker runs one live broker of a bounded-delay pub/sub
// overlay as a standalone process.
//
// Every broker of a deployment shares one overlay description (JSON, as
// produced by `bdps-sim -dump-topology` or handwritten) and a peer address
// file mapping broker ids to host:port. Start one process per broker:
//
//	bdps-sim -dump-topology > overlay.json
//	bdps-broker -id 0 -overlay overlay.json -peers peers.json -listen :7000 &
//	bdps-broker -id 1 -overlay overlay.json -peers peers.json -listen :7001 &
//	...
//
// peers.json: {"0": "127.0.0.1:7000", "1": "127.0.0.1:7001", ...}
//
// The broker schedules its output queues with the selected strategy
// (default EBPC with r = 0.5) and prints its counters on exit. With
// -state-dir it keeps a WAL + snapshot of its subscription admissions
// and per-link watermarks: SIGTERM drains gracefully (checkpoint, then
// stop), SIGINT stops hard, and a successor started with the same
// directory rejoins warm under a fresh incarnation epoch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"bdps/internal/core"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/topology"
	"bdps/internal/vtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bdps-broker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bdps-broker", flag.ContinueOnError)
	var (
		id        = fs.Int("id", -1, "this broker's node id (required)")
		overlayP  = fs.String("overlay", "", "overlay JSON file (required)")
		peersP    = fs.String("peers", "", "peer address JSON file (required)")
		listen    = fs.String("listen", "", "listen address (default: this id's peers entry)")
		scenario  = fs.String("scenario", "psd", "psd or ssd")
		strategy  = fs.String("strategy", "ebpc:0.5", "fifo, rl, eb, pc, ebpc[:r]")
		pd        = fs.Float64("pd", 2, "processing delay, ms")
		epsilon   = fs.Float64("epsilon", core.DefaultEpsilon, "invalid-message threshold")
		timescale = fs.Float64("timescale", 1, "link-delay compression factor")
		seed      = fs.Uint64("seed", 1, "link sampler seed")
		stateDir  = fs.String("state-dir", "", "durable state directory: WAL + snapshot of admissions and watermarks; restarting with the same directory rejoins warm")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id < 0 || *overlayP == "" || *peersP == "" {
		return fmt.Errorf("-id, -overlay and -peers are required")
	}

	ovFile, err := os.Open(*overlayP)
	if err != nil {
		return err
	}
	ov, err := topology.ReadJSON(ovFile)
	ovFile.Close()
	if err != nil {
		return err
	}

	peersRaw, err := os.ReadFile(*peersP)
	if err != nil {
		return err
	}
	var peerStrs map[string]string
	if err := json.Unmarshal(peersRaw, &peerStrs); err != nil {
		return fmt.Errorf("parsing %s: %w", *peersP, err)
	}
	peers := make(map[msg.NodeID]string, len(peerStrs))
	for k, v := range peerStrs {
		n, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("peer key %q is not a node id", k)
		}
		peers[msg.NodeID(n)] = v
	}

	var sc msg.Scenario
	switch *scenario {
	case "psd":
		sc = msg.PSD
	case "ssd":
		sc = msg.SSD
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	st, err := core.ParseStrategy(*strategy)
	if err != nil {
		return err
	}

	node, err := livenet.NewNode(livenet.NodeConfig{
		ID:        msg.NodeID(*id),
		Overlay:   ov,
		Scenario:  sc,
		Params:    core.Params{PD: vtime.Millis(*pd), Epsilon: *epsilon},
		Strategy:  st,
		TimeScale: *timescale,
		Seed:      *seed,
		StateDir:  *stateDir,
	})
	if err != nil {
		return err
	}
	if st, ok := node.Restarted(); ok {
		fmt.Printf("broker %d recovered %d durable entries, rejoining as epoch %d\n",
			*id, len(st.Entries), node.Epoch())
	}

	bind := *listen
	if bind == "" {
		bind = peers[msg.NodeID(*id)]
	}
	addr, err := node.Listen(bind)
	if err != nil {
		return err
	}
	fmt.Printf("broker %d listening on %s (strategy %s, scenario %s)\n",
		*id, addr, st.Name(), sc)

	if err := node.ConnectPeers(peers); err != nil {
		node.Stop()
		return err
	}
	fmt.Printf("broker %d connected to %d neighbors\n",
		*id, ov.Graph.Degree(msg.NodeID(*id)))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig

	// SIGTERM drains gracefully: checkpoint the durable state (so a
	// successor with the same -state-dir rejoins warm) before stopping.
	// SIGINT models a crash: stop hard, leaving only what the WAL already
	// holds.
	if got == syscall.SIGTERM {
		fmt.Printf("broker %d draining (SIGTERM)\n", *id)
		node.Drain()
	} else {
		node.Stop()
	}
	s := node.Stats()
	fmt.Printf("broker %d: receptions=%d deliveries=%d valid=%d drops(exp=%d hopeless=%d arrival=%d)\n",
		*id, s.Receptions, s.Deliveries, s.ValidDeliveries,
		s.DropsExpired, s.DropsHopeless, s.DropsArrival)
	return nil
}
