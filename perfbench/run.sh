#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload sweep --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, the
# result records and the span files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
