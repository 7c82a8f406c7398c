#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload fast-point --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traced-run spans stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out/spans" "$@"
