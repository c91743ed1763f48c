#!/usr/bin/env bash
# Builds the benchmark and parapll-server from this checkout, then runs
# one benchmark pass. Run it from the repository root:
#
#   bash perfbench/run.sh --workload query-social --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache, binaries, graphs, WAL dirs).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/parapll-server" parapll/cmd/parapll-server
) >&2

exec "$out/bin/perfbench" -server "$out/bin/parapll-server" -work "$out/work" "$@"
