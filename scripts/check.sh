#!/bin/sh
# Repo-wide checks: the tier-1 command (build + full tests) plus static
# vetting (go vet and the custom parapll-vet suite), a race-detector
# pass over the short suite, a fuzz smoke on the wire decoders, and a
# cross-compile sweep. Run before every PR:
#   scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

# Fail loudly, not with a cryptic "not found" mid-run, when the
# toolchain is missing from PATH.
if ! command -v go >/dev/null 2>&1; then
    echo "check.sh: FATAL: 'go' not found in PATH; install Go or add it to PATH" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== parapll-vet ./... (custom analyzers)"
if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
    # On CI, emit findings both as plain log lines and as GitHub
    # annotations (::error), so they surface inline on the PR diff. The
    # NDJSON field order is fixed by cmd/parapll-vet, which lets sed do
    # the rewrite without a JSON parser on the runner.
    vet_status=0
    vet_out=$(go run ./cmd/parapll-vet -json ./...) || vet_status=$?
    if [ -n "$vet_out" ]; then
        printf '%s\n' "$vet_out"
        printf '%s\n' "$vet_out" | sed -E \
            -e "s|\"file\":\"$(pwd)/|\"file\":\"|" \
            -e 's/^\{"file":"([^"]*)","line":([0-9]+),"col":([0-9]+),"analyzer":"([^"]*)","message":"(.*)"\}$/::error file=\1,line=\2::[\4] \5/'
    fi
    [ "$vet_status" -eq 0 ]
else
    go run ./cmd/parapll-vet ./...
fi

echo "== go test -race -short ./..."
go test -race -short ./...

echo "== go test ./... (tier-1)"
go test ./...

# Benchmark module: perfbench/ is its own Go module (replace parapll =>
# ../), so `go build ./...` above never compiles it and a root API change
# could break the benchmark silently. Vet it and run its short tests.
echo "== perfbench module (go vet + go test -short)"
(cd perfbench && go vet ./... && go test -short ./...)

# Fuzz smoke: a few seconds on each wire decoder keeps the targets
# compiling and catches shallow regressions; long runs stay manual
# (go test -fuzz=... -fuzztime=10m ./internal/...).
FUZZTIME="${FUZZTIME:-5s}"
echo "== fuzz smoke (${FUZZTIME} per target)"
go test -fuzz=FuzzDecodeFrame -fuzztime="$FUZZTIME" -run '^$' ./internal/cluster/
go test -fuzz=FuzzReadAny -fuzztime="$FUZZTIME" -run '^$' ./internal/label/
go test -fuzz=FuzzWALReplay -fuzztime="$FUZZTIME" -run '^$' ./internal/wal/
go test -fuzz=FuzzBatchBody -fuzztime="$FUZZTIME" -run '^$' ./internal/server/
go test -fuzz=FuzzQueryParams -fuzztime="$FUZZTIME" -run '^$' ./internal/server/

# Crash-recovery smoke: the living-graph durability contract end to
# end through the real binary — serve with -wal, acknowledge updates,
# kill -9, restart, verify every probed distance against a from-scratch
# Dijkstra (tier-1 runs it too; this names it so a red run points here).
echo "== crash-recovery e2e (serve -> update -> kill -9 -> replay -> compact)"
go test -run TestCrashRecoveryE2E -count=1 .

# Flight-recorder smoke: the diagnostics loop end to end through the
# real binaries — serve with -flight and a 1us query-p99 SLO, drive
# traffic until the watchdog breaches, and require the auto-captured
# bundle to pass `parapll-trace check`. With PARAPLL_E2E_ARTIFACTS set
# (CI sets it), the spool lands there so a red run's bundles survive as
# build artifacts.
echo "== flight-recorder e2e (serve -> forced SLO breach -> bundle -> parapll-trace check)"
go test -run TestFlightBreachE2E -count=1 .

# Cross-compile smoke: the mmap open path is split by build tags
# (//go:build unix vs the pure-read fallback), so compile the tree for a
# non-linux unix, for windows (the fallback) and for another
# architecture to catch tag or unsafe-arithmetic breakage early. Every
# target is attempted; any failure fails the script at the end, with a
# per-target status line instead of stopping at the first.
echo "== cross-compile smoke (darwin/arm64, windows/amd64, linux/arm64)"
cross_failed=0
for target in darwin/arm64 windows/amd64 linux/arm64; do
    os=${target%/*}
    arch=${target#*/}
    if GOOS="$os" GOARCH="$arch" go build ./... ; then
        echo "   $target: ok"
    else
        echo "   $target: FAILED" >&2
        cross_failed=1
    fi
done
if [ "$cross_failed" -ne 0 ]; then
    echo "check.sh: cross-compile smoke failed (see targets above)" >&2
    exit 1
fi

# Trace smoke: index a tiny graph with -trace and validate the emitted
# Chrome trace-event JSON end to end (well-formed, nonzero spans).
echo "== trace smoke (parapll-index -trace -> parapll-trace check)"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/parapll-gen -dataset Wiki-Vote -scale 0.02 -out "$tracedir"
go run ./cmd/parapll-index -graph "$tracedir/wiki-vote.bin" -out "$tracedir/g.idx" \
    -threads 4 -trace "$tracedir/build.json"
go run ./cmd/parapll-trace check "$tracedir/build.json"

# Opt-in: sync-pipeline benchmark (writes BENCH_sync.json). Slowish, so
# off by default; enable with SYNC_BENCH=1 scripts/check.sh
if [ "${SYNC_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench.sh sync"
    scripts/bench.sh sync
fi

# Opt-in: tracing-overhead benchmark (writes BENCH_trace.json); enable
# with TRACE_BENCH=1 scripts/check.sh
if [ "${TRACE_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench.sh trace"
    scripts/bench.sh trace
fi

# Opt-in: serving hot-path benchmark (writes BENCH_serve.json); enable
# with SERVE_BENCH=1 scripts/check.sh. The small-scale run doubles as a
# correctness smoke: the bench itself fails if the merge kernel's batch
# output diverges from the pre-kernel baseline. (Timing-quality runs
# use the experiment's own larger default scale; here the small scale keeps
# the check fast.)
if [ "${SERVE_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench.sh serve"
    SCALE="${SCALE:-0.02}" scripts/bench.sh serve
fi

# Build-engine smoke: a tiny-scale run of the build benchmark, whose
# built-in cross-engine query check turns this red if the batched
# engine's answers ever drift from per-root. Always on (fast at this
# scale); the JSON goes to a temp dir so the committed trajectory only
# changes via the opt-in below.
echo "== build-engine smoke (cross-engine equivalence at tiny scale)"
SCALE=0.02 DATASETS=Wiki-Vote OUT="$tracedir/BENCH_build_smoke.json" \
    scripts/bench.sh build >/dev/null

# Opt-in: full build-engine benchmark (writes BENCH_build.json); enable
# with BUILD_BENCH=1 scripts/check.sh
if [ "${BUILD_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench.sh build"
    scripts/bench.sh build
fi

# Opt-in: living-graph update benchmark (writes BENCH_update.json) —
# durable insert throughput, WAL replay, fold/rebuild compaction walls
# and publish windows; enable with UPDATE_BENCH=1 scripts/check.sh
if [ "${UPDATE_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench.sh update"
    scripts/bench.sh update
fi

echo "all checks passed"
