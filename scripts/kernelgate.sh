#!/bin/sh
# Kernel performance regression gate: measure a fresh (reduced-scale)
# kernelcmp report and hold it against the checked-in baseline ratios.
# Fails when any kernel regresses >10% relative to dijkstra or the
# default dispatch lands >5% off the per-dataset best (plus a fixed noise
# epsilon — see scripts/kernelgate/main.go), on full and 64-source subset
# solves alike. Regenerate the baseline after an intentional perf change
# with:
#
#   scripts/kernelgate.sh -write
#
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-check}"

tmp="$(mktemp -t kernelgate.XXXXXX.json)"
trap 'rm -f "$tmp"' EXIT

# Reduced scale keeps the gate CI-sized (n=1100 graphs) while staying
# above the lane engines' 1024-vertex floor, so the default dispatch
# scored here is the one large graphs get; four runs per row, median
# taken, tame scheduler jitter on oversubscribed runners (the race runs
# at 8 workers regardless of host cores).
go run ./cmd/apspbench -scale 0.55 -threads 1,2,8 -runs 4 -kerneljson "$tmp"

if [ "$mode" = "-write" ]; then
    go run ./scripts/kernelgate -write -baseline scripts/kernelgate_baseline.json "$tmp"
else
    go run ./scripts/kernelgate -baseline scripts/kernelgate_baseline.json "$tmp"
fi
