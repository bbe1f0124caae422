package main

import (
	"encoding/json"
)

// This file is the one place the benchmark's contract lives: workload
// names, end-to-end metrics with their regression bounds, and the
// per-layer metric list. BENCHMARK.json at the repository root is
// generated from it (`bench spec`) and bench_test.go fails when the two
// drift apart.

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures (the driver passes it back as
// --seconds). The pacing-off workloads spend 15/24 of it one publication
// at a time and 9/24 at the capacity window; mesh_paced emulates
// runSeconds/TimeScale; sim_paper simulates runSeconds/2 emulated minutes
// per cell, twenty times over.
const runSeconds = 20

var benchCommand = []string{"bash", "bench/run.sh"}

var benchPaths = []string{"bench"}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"chain_small", "3-broker chain, 16-byte payload, one match-all subscriber: per-message cost of msg+livenet is all there is; one publication at a time, then 64 outstanding"},
	{"fanout_match", "4-broker Y, 1 KB payload, 10k content subscriptions, a subscribe/unsubscribe pair per 10 publications: filter+routing+broker dominate; table writes beside reads"},
	{"mesh_paced", "the paper's 32-broker mesh on the sharded live plane with link pacing on (PSD, EB, 50 KB, 8 msg/min): core scheduling, burst pacing and timers decide attainment"},
	{"sim_paper", "the paper's grid {PSD,SSD}x{FIFO,RL,EB,PC,EBPC}x{6,12,18 msg/min} on the simulator, one goroutine, no sockets: sim+simnet+core+metrics batch baseline"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them (see README.md for what each means where).
// Bound is the share of the baseline median by which the metric may
// worsen before compare says "worse".
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"p50_us", "us", lower, 0.25},
	{"p99_us", "us", lower, 0.25},
	{"msgs_per_s", "msgs/s", higher, 0.25},
	{"allocs_per_msg", "count", lower, 0.10},
	{"attain_frac", "fraction", higher, 0.25},
	{"state_heap_mb", "MB", lower, 0.05},
}

// perLayer lists the single-layer metrics of the traced run, layer =
// module name. They carry no bound. A workload on which a metric has no
// meaning reports 0 and names it in the result file's "na" list.
var perLayer = []metricSpec{
	{"cpu_us_per_msg", "us", lower, 0},
	{"msg.encode_ns", "ns", lower, 0},
	{"msg.frame_bytes", "bytes", lower, 0},
	{"msg.decode_ns", "ns", lower, 0},
	{"msg.decode_allocs", "count", lower, 0},
	{"msg.sub_codec_ns", "ns", lower, 0},
	{"filter.index_match_ns", "ns", lower, 0},
	{"routing.match_ns", "ns", lower, 0},
	{"routing.match_entries", "count", lower, 0},
	{"routing.table_entries", "count", lower, 0},
	{"routing.install_us", "us", lower, 0},
	{"routing.remove_us", "us", lower, 0},
	{"routing.table_heap_mb", "MB", lower, 0},
	{"broker.process_ns", "ns", lower, 0},
	{"broker.deliveries_per_msg", "count", lower, 0},
	{"broker.enqueues_per_msg", "count", lower, 0},
	{"core.enqueue_ns", "ns", lower, 0},
	{"core.pop_burst_ns", "ns", lower, 0},
	{"core.pop_next_ns", "ns", lower, 0},
	{"core.drops_expired_frac", "fraction", lower, 0},
	{"core.drops_hopeless_frac", "fraction", lower, 0},
	{"core.drops_arrival_frac", "fraction", lower, 0},
	{"core.peak_queue", "count", lower, 0},
	{"livenet.publish_call_ns", "ns", lower, 0},
	{"livenet.hop_p50_us", "us", lower, 0},
	{"livenet.unaccounted_us", "us", lower, 0},
	{"livenet.open_p50_us", "us", lower, 0},
	{"livenet.open_p99_us", "us", lower, 0},
	{"livenet.open_attain_frac", "fraction", higher, 0},
	{"livenet.closed_cpu_us_per_msg", "us", lower, 0},
	{"livenet.closed_p50_us", "us", lower, 0},
	{"livenet.p99_hi_us", "us", lower, 0},
	{"livenet.loss_hi_frac", "fraction", lower, 0},
	{"livenet.receptions_per_msg", "count", lower, 0},
	{"livenet.deliveries_per_msg", "count", lower, 0},
	{"livenet.sub_client_drops", "count", lower, 0},
	{"livenet.drain_ms", "ms", lower, 0},
	{"livenet.cluster_start_ms", "ms", lower, 0},
	{"livenet.flood_us_per_sub", "us", lower, 0},
	{"livenet.gen_late_p99_us", "us", lower, 0},
	{"runtime.plan_ms", "ms", lower, 0},
	{"runtime.account_pubs_ms", "ms", lower, 0},
	{"runtime.sim_attain_frac", "fraction", higher, 0},
	{"runtime.attain_gap", "fraction", lower, 0},
	{"simnet.cell_ms_p50", "ms", lower, 0},
	{"simnet.cell_allocs", "count", lower, 0},
	{"simnet.receptions_per_s", "1/s", higher, 0},
	{"sim.engine_ns_per_event", "ns", lower, 0},
	{"metrics.record_ns", "ns", lower, 0},
	{"metrics.result_ms", "ms", lower, 0},
	{"stats.cdf_ns", "ns", lower, 0},
	{"topology.build_ms", "ms", lower, 0},
	{"topology.dijkstra_us", "us", lower, 0},
	{"workload.gen_ms", "ms", lower, 0},
	{"trace.e2e_p50_us", "us", lower, 0},
	{"trace.gen_wait_us", "us", lower, 0},
	{"trace.hop_replay_us", "us", lower, 0},
	{"trace_overhead_frac", "fraction", lower, 0},
}

// specOf is a metric's declaration; reporting an undeclared metric is a
// bug in the benchmark.
func specOf(name string) metricSpec {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m
			}
		}
	}
	panic("bench: metric " + name + " is not in spec.go")
}

// benchmarkJSON renders the root BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{Command: benchCommand, Paths: benchPaths, RunSeconds: runSeconds, Workloads: workloadSpecs}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static tables: cannot fail
	}
	return append(out, '\n')
}
