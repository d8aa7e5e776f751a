#!/usr/bin/env bash
# Builds the benchmark program and groutd from the checkout's sources, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare <old.jsonl> <new.jsonl>
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ (or $CARGO_TARGET_DIR when set); nothing is
# written outside the checkout and nothing is downloaded.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home" "$out/tmp"

export HOME=$out/home XDG_CONFIG_HOME=$out/home XDG_CACHE_HOME=$out/home
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off

# The benchmark is its own module (perfbench/go.mod) that imports the
# repository's packages through a replace directive, so the repository's
# own `go test ./...` never sees it. Build output goes to stderr: stdout
# carries only the benchmark's report lines and its final result line.
(cd perfbench && go build -o "$out/perfbench" .) >&2
go build -o "$out/groutd" ./cmd/groutd >&2

exec "$out/perfbench" -groutd "$out/groutd" -scratch "$out" "$@"
