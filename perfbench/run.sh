#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload kernel-s18 --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build outputs, the Go build cache and
# traced-run spans all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
