#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload copy --seed 0 --seconds 30 --trace 0
#
# The Go build cache, the binary and the CPU profiles stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/scenario" ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/scenario here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command and pprof write (build cache, module
# cache, telemetry counters, pprof scratch) inside the checkout, and never
# reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
