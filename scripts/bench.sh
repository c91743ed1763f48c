#!/bin/sh
# One entry point for the parapll-bench experiments. Each writes
# BENCH_<exp>.json at the repo root plus a human-readable table to
# stdout:
#
#   build   full index builds sweeping ordering (degree, psi) x engine
#           (perroot, batched): wall time, roots/s, index entries and
#           peak heap per cell, batched rows carrying the speedup over
#           per-root. Every batched index is query-checked against the
#           per-root one, so an engine that drifts fails the run.
#   serve   single-query p50/p99 latency, QPS and allocs/query, the batch
#           path timed against the pre-kernel merge it replaced (and
#           checked against it), and cached throughput.
#   sync    blocking vs overlapped cluster builds with per-round wire/raw
#           byte accounting on fixed seeds.
#   trace   the parallel build with no tracer, with tracing present but
#           disabled (that row must be free), and with tracing on.
#   update  the living-graph lifecycle: durable insert throughput, WAL
#           replay, then fold- and rebuild-mode compactions of the same
#           backlog with their publish windows. The fold leg cross-checks
#           answers before and after, so a corrupting compaction fails.
#
# The build and serve defaults put average label sizes in the paper's
# reported range (LN ~25-300): build and serving cost follow label
# length, and at smoke scales (LN ~20) fixed per-pair overhead drowns
# out the merge work being measured.
#
# Usage:
#   scripts/bench.sh <build|serve|sync|trace|update>
#   SCALE=0.02 scripts/bench.sh build          # quick smoke
#   DATASETS=Wiki-Vote THREADS=2 scripts/bench.sh update
#   BATCH=16 scripts/bench.sh build            # non-default batch size
#   SYNCS=1,4 NODES=3 THREADS_PER_NODE=2 scripts/bench.sh sync
#   OUT=results/BENCH_serve.json scripts/bench.sh serve
set -eu
cd "$(dirname "$0")/.."

exp="${1:-}"
case "$exp" in
build)  scale=0.1;  datasets=Wiki-Vote,Gnutella,RI-USA;   threads=1 ;;
serve)  scale=0.25; datasets=Wiki-Vote,Gnutella,Epinions; threads=4 ;;
sync)   scale=0.02; datasets=Wiki-Vote,Gnutella,Epinions; threads= ;;
trace)  scale=0.02; datasets=Wiki-Vote,Gnutella,Epinions; threads=4 ;;
update) scale=0.1;  datasets=Wiki-Vote,Gnutella,RI-USA;   threads=4 ;;
*)
    echo "usage: scripts/bench.sh build|serve|sync|trace|update" >&2
    exit 2
    ;;
esac
SCALE="${SCALE:-$scale}"
DATASETS="${DATASETS:-$datasets}"
OUT="${OUT:-BENCH_$exp.json}"

set -- -exp "$exp" -scale "$SCALE" -datasets "$DATASETS" -json "$OUT"
case "$exp" in
build) set -- "$@" -threads "${THREADS:-$threads}" -batch "${BATCH:-0}" ;;
sync)
    set -- "$@" -syncs "${SYNCS:-1,4,16}" -fig7nodes "${NODES:-3}" \
        -threads-per-node "${THREADS_PER_NODE:-2}"
    ;;
*) set -- "$@" -threads "${THREADS:-$threads}" ;;
esac

go run ./cmd/parapll-bench "$@"
echo "$exp benchmark records -> $OUT"
