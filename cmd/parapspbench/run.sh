#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash cmd/parapspbench/run.sh --workload apsp-powerlaw --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the go
# command's temporary and telemetry files, spill files and span files all
# go under $CARGO_TARGET_DIR (default .bench_build), so a run writes
# nothing outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/parapspbench" .)
exec "$out/parapspbench" -outdir "$out" "$@"
