#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (--workload NAME --seed N --seconds S --trace 0|1).
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, state directories, spans and profiles) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go -C "$here" build -o "$out/e2ebench" .
exec "$out/e2ebench" -out "$out" "$@"
