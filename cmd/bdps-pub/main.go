// Command bdps-pub publishes messages into a live bounded-delay pub/sub
// overlay.
//
// Publish a stream of random-attribute messages (the paper's workload):
//
//	bdps-pub -broker 127.0.0.1:7000 -ingress 0 -rate 10 -count 100 \
//	         -allowed 20s -size 50
//
// Or one message with explicit attributes:
//
//	bdps-pub -broker 127.0.0.1:7000 -ingress 0 -attrs "A1=3.5,A2=7" \
//	         -allowed 10s -payload "hello"
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bdps/internal/filter"
	"bdps/internal/livenet"
	"bdps/internal/msg"
	"bdps/internal/stats"
	"bdps/internal/vtime"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bdps-pub:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("bdps-pub", flag.ContinueOnError)
	var (
		broker  = fs.String("broker", "", "ingress broker address (required)")
		ingress = fs.Int("ingress", 0, "ingress broker node id")
		pubID   = fs.Int("id", 0, "publisher id (message-id namespace)")
		attrs   = fs.String("attrs", "", "explicit attributes, e.g. A1=3.5,A2=7 (default: random per paper)")
		count   = fs.Int("count", 1, "messages to publish")
		rate    = fs.Float64("rate", 10, "messages per minute when count > 1")
		size    = fs.Float64("size", 50, "emulated message size, KB")
		allowed = fs.Duration("allowed", 20*time.Second, "publisher-specified delay bound (0 for SSD)")
		payload = fs.String("payload", "", "payload string")
		seed    = fs.Uint64("seed", 1, "seed for random attributes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *broker == "" {
		return fmt.Errorf("-broker is required")
	}

	p, err := livenet.DialPublisher(*broker, msg.NodeID(*pubID))
	if err != nil {
		return err
	}
	// Publish returns once the frame is buffered; a write that fails
	// after the last call surfaces here.
	defer func() {
		if cerr := p.Close(); err == nil {
			err = cerr
		}
	}()

	rng := stats.NewStream(*seed)
	interval := time.Duration(0)
	if *count > 1 && *rate > 0 {
		interval = time.Duration(float64(time.Minute) / *rate)
	}

	for i := 0; i < *count; i++ {
		var set msg.AttrSet
		if *attrs != "" {
			set, err = parseAttrs(*attrs)
			if err != nil {
				return err
			}
		} else {
			set = msg.NumAttrs(map[string]float64{
				"A1": rng.Uniform(0, 10),
				"A2": rng.Uniform(0, 10),
			})
		}
		id, err := p.Publish(msg.NodeID(*ingress), set, *size,
			vtime.FromDuration(*allowed), []byte(*payload))
		if err != nil {
			return err
		}
		fmt.Printf("published %d %s\n", id, set)
		if i < *count-1 && interval > 0 {
			time.Sleep(interval)
		}
	}
	return nil
}

func parseAttrs(s string) (msg.AttrSet, error) {
	var set msg.AttrSet
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return set, fmt.Errorf("bad attribute %q (want name=value)", kv)
		}
		if f, err := strconv.ParseFloat(parts[1], 64); err == nil {
			set.Set(parts[0], filter.Num(f))
		} else {
			set.Set(parts[0], filter.Str(parts[1]))
		}
	}
	return set, nil
}
