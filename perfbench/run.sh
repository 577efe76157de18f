#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload <batch|certify|serve|fleet> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the Go toolchain and the
# benchmark write (build cache, binary, trace files) stays under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
