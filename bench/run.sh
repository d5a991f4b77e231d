#!/usr/bin/env bash
# Builds bench/ustabench from source and runs it from the repository root
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$out/ustabench" ./ustabench
exec "$out/ustabench" "$@"
