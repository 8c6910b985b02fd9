#!/usr/bin/env bash
# Observability smoke gate: tracing and metrics are garnish, never an
# ingredient -- turning them on must not change one result byte, and
# the files they emit must be well-formed and self-consistent.
#
#   1. A traced+metered `stsim_runner dump` of the golden matrix is
#      byte-identical to a plain dump; its trace file is a Chrome
#      trace_event document (ph/ts/dur on every event) holding the
#      job lifecycle spans, and its metrics snapshot counts exactly
#      the manifest's jobs in runjobs.jobs_completed and one program
#      build per benchmark the manifest names.
#   2. A traced stsim_serve (--trace/--metrics/--stats-interval-sec)
#      serves a replay byte-identical to the in-process dump, prints
#      periodic stats lines, and after drain its trace holds the
#      serve.request spans and its metrics snapshot counts exactly
#      the replayed ids. The daemon builds every built-in benchmark's
#      program once, at start: eight program.build spans and
#      sim.program_builds 8, though the replay names only four.
#   3. `stsim_loadgen bench` ingests {"op":"metrics"} snapshots
#      around its run and reports the server-side queue-wait and
#      sim-time window in its `--json` row.
#
# ctest runs this as `obs_smoke`, so every CI job that runs ctest
# does (Release, Debug, Clang, ASan, TSan); locally:
#
#   cmake -B build -S . && cmake --build build \
#       --target stsim_runner stsim_serve stsim_loadgen
#   scripts/obs_smoke.sh build
set -euo pipefail

BUILD=${1:-build}
for bin in stsim_runner stsim_serve stsim_loadgen; do
    if [ ! -x "$BUILD/$bin" ]; then
        echo "obs_smoke: $BUILD/$bin not built" >&2
        exit 2
    fi
done
RUNNER="$BUILD/stsim_runner"
SERVE="$BUILD/stsim_serve"
LOADGEN="$BUILD/stsim_loadgen"

TMP=$(mktemp -d)
SERVER_PID=
cleanup() {
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -KILL "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "obs_smoke: $*" >&2
    exit 1
}

# One flat-record integer field, e.g. extract c.serve.jobs_completed f.
extract() {
    grep -o "\"$1\":[0-9]*" "$2" | head -n 1 | cut -d: -f2
}

# The Chrome trace_event keys Perfetto needs, plus the named spans
# this layer promises to emit.
check_trace() {
    local f=$1
    shift
    [ -s "$f" ] || fail "trace file $f is empty"
    grep -q '"traceEvents":\[' "$f" || fail "$f: no traceEvents array"
    grep -q '"ph":"X"' "$f" || fail "$f: no complete (ph:X) events"
    grep -q '"ts":' "$f" || fail "$f: events carry no ts"
    grep -q '"dur":' "$f" || fail "$f: events carry no dur"
    for span in "$@"; do
        grep -q "\"name\":\"$span\"" "$f" ||
            fail "$f: expected span $span is missing"
    done
}

"$RUNNER" manifest --suite golden --insts 3000 --warmup 500 \
    --out "$TMP/manifest.jsonl"
JOBS=$(wc -l < "$TMP/manifest.jsonl")

# --- 1. traced dump == plain dump, byte for byte.
"$RUNNER" dump --manifest "$TMP/manifest.jsonl" \
    --out "$TMP/plain.jsonl"
"$RUNNER" dump --manifest "$TMP/manifest.jsonl" \
    --trace "$TMP/dump.trace.json" --metrics "$TMP/dump.metrics.json" \
    --out "$TMP/traced.jsonl"
cmp "$TMP/plain.jsonl" "$TMP/traced.jsonl"
check_trace "$TMP/dump.trace.json" job.warmup job.measure job.commit \
    program.build
DUMP_DONE=$(extract c.runjobs.jobs_completed "$TMP/dump.metrics.json")
[ "$DUMP_DONE" = "$JOBS" ] ||
    fail "dump metrics: jobs_completed=$DUMP_DONE, manifest has $JOBS"
BENCHES=$(grep -o '"benchmark":"[^"]*"' "$TMP/manifest.jsonl" | sort -u |
          wc -l)
DUMP_BUILDS=$(extract c.sim.program_builds "$TMP/dump.metrics.json")
[ "$DUMP_BUILDS" = "$BENCHES" ] ||
    fail "dump metrics: program_builds=$DUMP_BUILDS, manifest names" \
         "$BENCHES benchmarks"

# --- 2. traced serve: replay matches the dump; counters match the
# replayed ids; the trace holds the request pipeline spans.
SOCK="$TMP/serve.sock"
"$SERVE" --unix "$SOCK" --queue 16 --drain-grace-ms 4000 \
    --trace "$TMP/serve.trace.json" \
    --metrics "$TMP/serve.metrics.json" \
    --stats-interval-sec 1 2>"$TMP/server.log" &
SERVER_PID=$!
"$LOADGEN" ping --unix "$SOCK" --tries 100

"$LOADGEN" replay --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --out "$TMP/served.jsonl"
cmp "$TMP/served.jsonl" "$TMP/plain.jsonl"

# The periodic stats line rides the info log channel (1s cadence).
for _ in $(seq 1 50); do
    grep -q "stats requests=" "$TMP/server.log" && break
    sleep 0.2
done
grep -q "stats requests=" "$TMP/server.log" ||
    fail "no periodic stats line in server log"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=

check_trace "$TMP/serve.trace.json" serve.parse serve.sim \
    serve.request serve.reply_flush program.build
# One build per built-in benchmark, whichever ones the replay names.
SERVE_BUILDS=$(extract c.sim.program_builds "$TMP/serve.metrics.json")
[ "$SERVE_BUILDS" = 8 ] ||
    fail "serve metrics: program_builds=$SERVE_BUILDS, want 8"
BUILD_SPANS=$(grep -o '"name":"program.build"' "$TMP/serve.trace.json" |
              wc -l)
[ "$BUILD_SPANS" = 8 ] ||
    fail "serve trace: $BUILD_SPANS program.build spans, want 8"
SERVE_DONE=$(extract c.serve.jobs_completed "$TMP/serve.metrics.json")
[ "$SERVE_DONE" = "$JOBS" ] ||
    fail "serve metrics: jobs_completed=$SERVE_DONE, replayed $JOBS"
QWAIT_N=$(extract h.serve.queue_wait_us.count "$TMP/serve.metrics.json")
[ "$QWAIT_N" = "$JOBS" ] ||
    fail "serve metrics: queue_wait count=$QWAIT_N, replayed $JOBS"

# --- 3. bench ingests {"op":"metrics"} and reports the server-side
# window. Fresh untraced server: the op must not need --trace.
SOCK2="$TMP/serve2.sock"
"$SERVE" --unix "$SOCK2" --queue 16 --drain-grace-ms 4000 \
    2>"$TMP/server2.log" &
SERVER_PID=$!
"$LOADGEN" ping --unix "$SOCK2" --tries 100
"$LOADGEN" bench --unix "$SOCK2" --manifest "$TMP/manifest.jsonl" \
    --clients 2 --duration-sec 1 --json "$TMP/bench.json" \
    2>"$TMP/bench.log"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=

grep -q '"server_queue_wait_us":{' "$TMP/bench.json" ||
    fail "bench row lacks server_queue_wait_us"
grep -q '"server_sim_time_us":{' "$TMP/bench.json" ||
    fail "bench row lacks server_sim_time_us"
grep -q "server window" "$TMP/bench.log" ||
    fail "bench did not report the server-side window"
BENCH_OK=$(extract ok "$TMP/bench.json")
# The sim-time window must cover at least every job the bench saw
# complete (replies raced past the closing snapshot may add more).
SIM_N=$(grep -o '"server_sim_time_us":{"count":[0-9]*' \
    "$TMP/bench.json" | cut -d: -f3)
[ -n "$BENCH_OK" ] && [ -n "$SIM_N" ] && [ "$SIM_N" -ge "$BENCH_OK" ] ||
    fail "server sim window count $SIM_N < bench ok $BENCH_OK"

echo "obs_smoke: traced dump and traced serve are byte-identical to" \
     "untraced runs; trace files are Perfetto-shaped; metrics" \
     "snapshots count exactly the work done; bench ingests the" \
     "server-side metrics window"
