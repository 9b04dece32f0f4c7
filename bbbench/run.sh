#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bbbench/run.sh --workload bulk --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

(cd "$here" && go build -o "$out/bbbench" .)
exec "$out/bbbench" "$@"
