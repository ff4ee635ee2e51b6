#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload mesh|city|ingest --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# (Go build cache and temporary files, binary, WAL spools, trace files)
# stays under .bench_build/perfbench in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
