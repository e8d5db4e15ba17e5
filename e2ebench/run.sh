#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload pmut --seed 1 --seconds 30 --trace 0
#
# Every build product (binary, Go build cache, compiler temporaries)
# stays under .bench_build/ at the repository root, so the benchmark
# reads and writes only inside its checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$bench_dir" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
