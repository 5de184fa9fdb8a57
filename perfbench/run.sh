#!/usr/bin/env bash
# Builds the benchmark and saserve from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload single|sweep|service --seed N --seconds S --trace 0|1
#
# Builds, caches and the stores the workloads write stay under
# .bench_build/ in the checkout; the toolchain is used offline.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
go build -o "$out/saserve" ./cmd/saserve
exec "$out/perfbench" -repo "$root" -work "$out/work" -saserve "$out/saserve" "$@"
