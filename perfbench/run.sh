#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload ycsb-oltp --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build writes (the
# Go build cache, the binary, the traced run's spans) goes under
# $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/home"

# Keep the go command inside the checkout: no module downloads, no
# toolchain switch, and its cache and config under $out.
export GOCACHE=$out/gocache GOPATH=$out/home/go GOMODCACHE=$out/home/go/pkg/mod
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
