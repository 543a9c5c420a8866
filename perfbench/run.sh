#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments:
#
#   bash perfbench/run.sh --workload synth|verify|service --seed N --seconds S --trace 0|1
#
# Run it from the repository root.  Everything it builds or writes stays
# under .bench_build/perfbench.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
