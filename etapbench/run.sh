#!/usr/bin/env bash
# Builds the ETAP benchmark from source and runs one workload.
#
#   bash etapbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root: the benchmark module replaces the
# etap module with the parent directory, so the build fails (and the
# script exits non-zero without a result) anywhere else. The build
# cache, the binary and every temporary file stay under .bench_build/,
# and the build never fetches anything: the benchmark needs only the
# standard library and the repository itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/etapbench" && go build -o "$out/etapbench" .) >&2
exec "$out/etapbench" "$@"
