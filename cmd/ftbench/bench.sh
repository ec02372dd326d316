#!/usr/bin/env bash
# Builds ftbench from the surrounding checkout and runs it with the given
# arguments. Run it from the repository root:
#
#	bash cmd/ftbench/bench.sh -seed 1
#	bash cmd/ftbench/bench.sh --workload factor-large --seed 3 --seconds 15 --trace 0
#
# Everything the build writes (the Go build and module caches, its temporary
# files, the toolchain's local telemetry, the binary) lands in .bench_build/
# under the current directory, so a run touches nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go -C "$root/cmd/ftbench" build -o "$out/ftbench" . >&2
exec "$out/ftbench" "$@"
