GO ?= go

.PHONY: build vet test bench-e2e bench-gate verify

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
# small chain for five wall seconds — every publication of its closed
# loops received once, none missing, at one and at 64 outstanding: the
# end-to-end check of the edge's batched session writes; the paper's
# mesh on the live plane with pacing on, five wall seconds; the
# content fan-out for five (≈ 10 s with its 10 000-subscription set-up) —
# its `correct` holds the content deliveries to the publications'
# reference match counts, computed from the subscription specs, while
# subscriptions come and go: the only end-to-end check of filter.Index
# beside table writes; then the simulator's grid at seed 1 for the full
# twenty — the only form that checks bench/golden/sim_paper.seed1.json
# cell by cell, so a changed scheduling decision fails here (≈ 20 s). A
# run's last line is its verdict as JSON; fail unless it is correct with
# nothing failed (no delivery valid past its bound, none twice,
# conservation holds, match counts and golden ledger matched).
GATED := chain_small:5 mesh_paced:5 fanout_match:5 sim_paper:20
bench-gate:
	mkdir -p .bench_build
	set -e; for gated in $(GATED); do \
		bash bench/run.sh --workload $${gated%:*} --seed 1 --seconds $${gated#*:} --trace 0 | tee .bench_build/gate.out; \
		tail -n 1 .bench_build/gate.out | grep -q '"correct":true'; \
		tail -n 1 .bench_build/gate.out | grep -q '"failed":0[,}]'; \
	done
