#!/usr/bin/env bash
# Builds metaai-serve, metaai-fleet and the e2ebench client from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload replica-closed --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and run artefact stays under .bench_build in
# the current directory, so the benchmark reads and writes nothing outside
# the checkout it runs in.
set -euo pipefail

root=$(pwd)
# Without the program's source there is nothing to measure: fail before
# any go command starts.
for need in go.mod cmd/metaai-serve cmd/metaai-fleet e2ebench/go.mod; do
	if [ ! -e "$root/$need" ]; then
		echo "e2ebench: $root/$need not found; run from the repository root" >&2
		exit 1
	fi
done

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

# With telemetry on (the default, "local"), a go command may fork a detached
# telemetry process that outlives this script. The mode lives in the config
# directory above, so switch it off there before any other go command runs.
go telemetry off

# The benchmark measures the shipped binaries, built from this checkout.
go build -o "$out/bin/" ./cmd/metaai-serve ./cmd/metaai-fleet
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)

exec "$out/bin/e2ebench" -bin "$out/bin" -out "$out/run" "$@"
