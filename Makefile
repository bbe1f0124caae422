GO ?= go

.PHONY: build vet test bench bench-e2e bench-gate verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

verify: build vet test

# bench-e2e is the repository benchmark end to end (bench/README.md): the
# harness self-tests, the four workloads in one process (≈ 90 s), then
# the regression bounds of bench/spec.go against a saved parent result —
# by default the definition-time baseline; point BENCH_PARENT (a path
# relative to bench/ or absolute, or a comma-separated list of them) at
# what the same command wrote on the parent commit. Fails on any "worse"
# row.
BENCH_PARENT ?= baseline/run-A.json
bench-e2e:
	cd bench && $(GO) test ./...
	cd bench && $(GO) run . -workload all -seed 1 -out out/run.json
	cd bench && $(GO) run . compare $(BENCH_PARENT) out/run.json

# bench-gate is CI's short form, through the driver's entry point: the
# paper's mesh on the live plane with pacing on, five wall seconds;
# then the simulator's grid at seed 1 for the full twenty — the only form
# that checks bench/golden/sim_paper.seed1.json cell by cell, so a
# changed scheduling decision fails here (≈ 20 s). A run's last line is
# its verdict as JSON; fail unless it is correct with nothing failed (no
# delivery valid past its bound, none twice, conservation holds, golden
# ledger matched).
GATED := mesh_paced:5 sim_paper:20
bench-gate:
	mkdir -p .bench_build
	set -e; for gated in $(GATED); do \
		bash bench/run.sh --workload $${gated%:*} --seed 1 --seconds $${gated#*:} --trace 0 | tee .bench_build/gate.out; \
		tail -n 1 .bench_build/gate.out | grep -q '"correct":true'; \
		tail -n 1 .bench_build/gate.out | grep -q '"failed":0[,}]'; \
	done

# bench emits the perf-trajectory file for this PR: every benchmark at a
# fixed, comparable iteration count, with allocation stats, as the JSON
# stream go test produces with -json. Five passes:
#   1. the steady families at 100x (figures, ablations, micro-benches);
#   2. live throughput at sustained scale;
#   3. the index-build sweep at 1x — one full build per size is the
#      measurement, and the quadratic re-sort baseline at 100k is the
#      before number the churn rework is judged against;
#   4. the churn benches on a clock budget, so the churn-while-matching
#      run sustains its background flood long enough to mean something;
#   5. the recovery benches: time from confirmed-dead arc to repaired
#      routing (detour reroute, and a full layered-topology repair);
#   6. the reliable-channel benches: retransmit-buffer cycle/eviction and
#      receiver dedup/reorder healing — the per-frame tax a lossy link pays;
#   7. the aggregation tentpole at 1x — one flat and one aggregated
#      million-subscription build per iteration IS the measurement, and
#      the bench itself asserts the 5x entry/flood shrink;
#   8. the overload benches: the plan-side admission sweep, steady-state
#      worst-first shedding, and the flash-crowd throughput pair
#      (unprotected vs admission+shed+backpressure, with the rejected
#      share and bounded peak queue reported alongside msgs/sec);
#   9. the durability benches: WAL append on the admission path, full
#      log replay at restart, and the broker-side session-resume cycle
#      (ring scan + deadline gate + frame writes for a full ring).
bench:
	$(GO) test -json -run '^$$' -bench '^Benchmark(Figure|Ablation|Filter|Normal|Pick|Queue|Table|Layer|Routing|Topology|Dijkstra|Codec|Sim|Covers)' -benchmem -benchtime 100x . > BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench BenchmarkLiveThroughput -benchmem -benchtime 20000x . >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkIndexBuild$$' -benchmem -benchtime 1x . >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkChurn' -benchmem -benchtime 2s . >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkRecovery' -benchmem -benchtime 100x ./internal/runtime/ >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkRetransmit$$' -benchmem -benchtime 10000x ./internal/livenet/ >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkAggregation1M$$' -benchmem -benchtime 1x . >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkAdmission$$' -benchmem -benchtime 100x ./internal/runtime/ >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkShedWorst$$' -benchmem -benchtime 1000x ./internal/core/ >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkFlashCrowdThroughput' -benchmem -benchtime 20000x . >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^Benchmark(WALAppend|LogReplay)$$' -benchmem -benchtime 1000x ./internal/durable/ >> BENCH_pr10.json
	$(GO) test -json -run '^$$' -bench '^BenchmarkSessionResume$$' -benchmem -benchtime 1000x ./internal/livenet/ >> BENCH_pr10.json
	@grep -o '"Output":"Benchmark[^"]*ns/op[^"]*"' BENCH_pr10.json | head -80 || true
