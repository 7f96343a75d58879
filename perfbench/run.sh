#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload alexsys-batch --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write (Go build cache, binary, server data, written traces) stays
# under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and usage counters under the user's
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out" "$@"
