#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload fig9-sat --seed 1 --seconds 24 --trace 0
#
# Run from the repository root. Everything the build and the run write goes
# under $CARGO_TARGET_DIR (default .bench_build): the binary, the Go build
# cache, span files, CPU profiles and the serve-mix scratch stores.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
