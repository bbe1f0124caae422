#!/usr/bin/env bash
# Driver entry point: build the benchmark from source inside the checkout,
# then run it with the arguments given (--workload --seed --seconds --trace).
# Everything the build leaves behind (compiler cache, temporaries, binary)
# stays under .bench_build/ in the checkout; nothing is read or written
# outside it. Fails, printing no result, where the module is absent.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$build/bdps-bench" .)
exec "$build/bdps-bench" -out "$root/bench/out/run.json" "$@"
