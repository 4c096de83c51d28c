#!/bin/sh
# CI gate: `make check` runs every gate (vet for amd64 and arm64, gofmt,
# tests, the e2ebench module's vet and tests, -race, one run of each Go
# micro-benchmark under internal/ and cmd/, fuzz smokes, the
# zero-rate/recovery/cascade/fleet/chaos gates, and the
# obs/bench/trace/stitch determinism gates); the Makefile is the one list
# of them. Then refresh the emit-only servebench snapshot.
set -eu

make check

echo "== servebench snapshot (emit-only, no thresholds) =="
go run ./cmd/metaai-bench -servebench 2000 -obs-out BENCH_serve.json

echo "ci: all checks passed"
