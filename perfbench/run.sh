#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, for example
#
#   bash perfbench/run.sh --workload tpch-plans --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, spill files and traces all stay under
# .bench_build/ at the root of the checkout. A build failure (such as a
# checkout without the engine's sources) exits non-zero before any run.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-run" "$@"
