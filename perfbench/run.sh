#!/usr/bin/env bash
# Builds bncg and the perfbench program from the checkout in the current
# directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-n7 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build,
# inside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false

go build -o "$out/bncg" ./cmd/bncg
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --bncg "$out/bncg" --out "$out" "$@"
