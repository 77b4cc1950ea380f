#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it from the repository
# root; every argument is passed through (see bench/README.md).
#
#   bash bench/run.sh --workload analyze-hit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, temp files, binaries, span logs,
# and the per-user files the go command keeps under $HOME.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C bench build -o "$out/servebench" .
exec "$out/servebench" "$@"
