#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash benchsuite/run.sh --workload site-batch --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write lands in .bench_build/ at the
# root: the Go build cache, the toolchain's config and temp files, the
# binary, and the generated site the batch workloads lint.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=""
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$here" build -o "$out/benchsuite" .
exec "$out/benchsuite" --dir "$out" "$@"
