#!/usr/bin/env bash
# Builds p8bench from this checkout's sources into .bench_build at the
# checkout root and runs it with the given arguments, for example:
#
#   bash cmd/p8bench/run.sh -workload suite-cold -seed 1 -seconds 20 -trace 0
#
# The Go build cache, temporary files and the benchmark's own scratch
# directories all live under .bench_build, so a run writes nothing
# outside the checkout. The build fails, and the script exits non-zero
# without a result, when the repository sources are not beside it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$here" build -o "$build/p8bench" .
exec "$build/p8bench" "$@"
