#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout and run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything Go writes — build cache, module cache, temp files, telemetry —
# is pointed into .bench_build under the checkout, so a run reads and writes
# nothing outside it. The first run compiles (about a minute); later runs
# only revalidate the cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a full checkout (go.mod, internal/, bench/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
