#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the root of a
# checkout. Arguments are passed to the benchmark:
#
#   bash perfbench/run.sh --workload serve-mix --seed 42 --seconds 10 --trace 0
#
# The Go build cache and every generated file stay under .bench_build/
# in the checkout. Outside a full checkout (no go.mod beside
# perfbench/) the build fails and the script exits non-zero without a
# result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
