#!/usr/bin/env bash
# run.sh builds the benchmark and the odyssey-sim binary from this checkout,
# then runs the benchmark with the given arguments. Everything the build
# writes (Go build cache, module cache, binaries, traces) stays under
# .bench_build at the root of the checkout. Run it from anywhere:
#
#   bash bench/run.sh --workload chaos-soak --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh --all --out a.json
#   bash bench/run.sh --compare a.json b.json
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

cd "$root/bench"
go build -o "$out/bench" . >&2
go build -o "$out/odyssey-sim" odyssey/cmd/odyssey-sim >&2

cd "$root"
exec "$out/bench" -sim "$out/odyssey-sim" "$@"
