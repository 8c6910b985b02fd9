#!/usr/bin/env bash
# Isolation supervision soak: prove stsim_serve --isolate contains
# crashing workers, supervises respawn, and quarantines poison jobs
# without ever corrupting a result or taking the daemon down.
#
#   1. baseline: replay the golden manifest through the isolated
#      daemon; served results must be byte-identical to
#      `stsim_runner dump`, every id answered exactly once.
#   2. poison: a job whose experiment name carries the
#      STSIM_TEST_CRASH_ON_JOB marker SIGSEGVs every worker that
#      touches it; after the kill threshold it must earn a structured
#      {"error":"poison"} reply, and resending it must be refused
#      straight from the quarantine set.
#   3. kill storm: a 4-client bench load plus a concurrent replay run
#      while a loop SIGKILLs workers every 250ms. The daemon must
#      never exit, the replay (client-side --retry absorbing any
#      `internal` replies) must still produce bit-exact results.
#   4. health: {"op":"health"} must report the supervised restarts
#      and the quarantined fingerprint.
#   5. drain: SIGTERM must exit 0 with the fleet reaped.
#
# ctest runs this as `serve_isolation_fault_injection`, so every CI job that runs ctest
# does (Release, Debug, Clang, ASan, TSan); locally:
#
#   cmake -B build -S . && cmake --build build \
#       --target stsim_runner stsim_serve stsim_loadgen
#   scripts/serve_isolation_fault_injection.sh build
set -euo pipefail

BUILD=${1:-build}
for bin in stsim_runner stsim_serve stsim_loadgen; do
    if [ ! -x "$BUILD/$bin" ]; then
        echo "serve_isolation_fault_injection: $BUILD/$bin not" \
             "built" >&2
        exit 2
    fi
done
RUNNER="$BUILD/stsim_runner"
SERVE="$BUILD/stsim_serve"
LOADGEN="$BUILD/stsim_loadgen"

TMP=$(mktemp -d)
SERVER_PID=
KILLER_PID=
cleanup() {
    if [ -n "$KILLER_PID" ] && kill -0 "$KILLER_PID" 2>/dev/null; then
        kill -KILL "$KILLER_PID" 2>/dev/null || true
    fi
    if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -KILL "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

SOCK="$TMP/serve.sock"

# Small jobs: the soak exercises supervision, not simulation
# throughput. The manifest/dump pair is still the full golden matrix.
"$RUNNER" manifest --suite golden --insts 3000 --warmup 500 \
    --out "$TMP/manifest.jsonl"
"$RUNNER" dump --manifest "$TMP/manifest.jsonl" \
    --out "$TMP/direct.jsonl"

# The poison job: first manifest line with the crash marker spliced
# into its experiment name. Workers (which inherit the daemon's
# STSIM_TEST_CRASH_ON_JOB below) SIGSEGV on it; everything else in
# the golden matrix is untouched by the marker.
head -n 1 "$TMP/manifest.jsonl" \
    | sed 's/"experiment":"/"experiment":"poisonmark-/' \
    > "$TMP/poison.jsonl"
if ! grep -q poisonmark "$TMP/poison.jsonl"; then
    echo "serve_isolation_fault_injection: failed to build the" \
         "poison job" >&2
    exit 1
fi

STSIM_TEST_CRASH_ON_JOB=poisonmark \
    "$SERVE" --unix "$SOCK" --isolate --jobs 4 --queue 16 \
    --drain-grace-ms 8000 --job-attempts 6 --poison-threshold 4 \
    --respawn-base-ms 20 --respawn-cap-ms 500 \
    2>"$TMP/server.log" &
SERVER_PID=$!
"$LOADGEN" ping --unix "$SOCK" --tries 100

# --- 1. baseline: isolated results must match the in-process dump.
"$LOADGEN" replay --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --retry 10 --out "$TMP/served-1.jsonl"
cmp "$TMP/served-1.jsonl" "$TMP/direct.jsonl"

# --- 2. poison: K consecutive worker kills => structured quarantine.
"$LOADGEN" oneshot --unix "$SOCK" --manifest "$TMP/poison.jsonl" \
    --id 9001 > "$TMP/poison-1.json"
grep -q '"error":"poison"' "$TMP/poison-1.json"
grep -q 'quarantined' "$TMP/poison-1.json"
# Resending must be refused from the quarantine set, not kill more
# workers.
"$LOADGEN" oneshot --unix "$SOCK" --manifest "$TMP/poison.jsonl" \
    --id 9002 > "$TMP/poison-2.json"
grep -q '"error":"poison"' "$TMP/poison-2.json"
grep -q 'quarantined' "$TMP/poison-2.json"

# --- 3. kill storm under load: SIGKILL a worker every 250ms while a
# bench fleet and a byte-exactness replay hammer the daemon.
(
    end=$((SECONDS + 8))
    while [ "$SECONDS" -lt "$end" ]; do
        pgrep -P "$SERVER_PID" 2>/dev/null | head -n 1 \
            | xargs -r kill -KILL 2>/dev/null || true
        sleep 0.25
    done
) &
KILLER_PID=$!
"$LOADGEN" bench --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --clients 4 --duration-sec 8 --retry 8 --json "$TMP/storm.json" \
    >/dev/null 2>&1 &
BENCH_PID=$!
"$LOADGEN" replay --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --retry 10 --out "$TMP/served-2.jsonl"
cmp "$TMP/served-2.jsonl" "$TMP/direct.jsonl"
wait "$BENCH_PID"
wait "$KILLER_PID" 2>/dev/null || true
KILLER_PID=
if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_isolation_fault_injection: daemon died during the" \
         "worker kill storm; log:" >&2
    cat "$TMP/server.log" >&2
    exit 1
fi

# --- 4. health must report the supervision that just happened.
"$LOADGEN" health --unix "$SOCK" > "$TMP/health.json"
grep -q '"isolate":true' "$TMP/health.json"
grep -q '"quarantined":1' "$TMP/health.json"
restarts=$(sed 's/.*"restarts_total"://;s/[,}].*//' "$TMP/health.json")
if [ -z "$restarts" ] || [ "$restarts" -lt 1 ]; then
    echo "serve_isolation_fault_injection: health reports no worker" \
         "restarts after the kill storm: $(cat "$TMP/health.json")" >&2
    exit 1
fi

# --- 5. still bit-exact after the storm, then a clean drain.
"$LOADGEN" replay --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --retry 10 --out "$TMP/served-3.jsonl"
cmp "$TMP/served-3.jsonl" "$TMP/direct.jsonl"

kill -TERM "$SERVER_PID"
set +e
wait "$SERVER_PID"
rc=$?
set -e
SERVER_PID=
if [ "$rc" -ne 0 ]; then
    echo "serve_isolation_fault_injection: drain exited $rc," \
         "expected 0; log:" >&2
    cat "$TMP/server.log" >&2
    exit 1
fi

echo "serve_isolation_fault_injection: poison quarantined, $restarts" \
     "supervised restarts, all served results bit-identical"
