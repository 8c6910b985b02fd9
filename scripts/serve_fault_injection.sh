#!/usr/bin/env bash
# Serve fault-injection soak: prove stsim_serve survives hostile
# clients and rolling restarts without ever corrupting a result.
#
#   1. baseline: replay the golden manifest through the daemon; the
#      served results must be byte-identical to `stsim_runner dump`
#      of the same manifest, and every id answered exactly once.
#   2. abuse: garbage frames, missing keys, unknown benchmark,
#      truncated frame, oversize frame, expired deadline -- each must
#      earn a structured error, and a valid job must still be served.
#   3. client killed mid-stream: a replay is SIGKILLed partway
#      through; the daemon must shrug it off and serve a fresh replay
#      bit-exactly, with a deliberately slow reader parked on another
#      connection the whole time.
#   4. SIGTERM mid-load: a bench fleet is hammering the daemon when
#      it is told to drain; it must exit 0 within the grace period.
#   5. restart: a fresh daemon on the same socket path serves the
#      same replay bit-exactly, then drains cleanly while idle.
#
# ctest runs this as `serve_fault_injection`, so every CI job that runs ctest
# does (Release, Debug, Clang, ASan, TSan); locally:
#
#   cmake -B build -S . && cmake --build build \
#       --target stsim_runner stsim_serve stsim_loadgen
#   scripts/serve_fault_injection.sh build
set -euo pipefail

BUILD=${1:-build}
for bin in stsim_runner stsim_serve stsim_loadgen; do
    if [ ! -x "$BUILD/$bin" ]; then
        echo "serve_fault_injection: $BUILD/$bin not built" >&2
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

SOCK="$TMP/serve.sock"

# Small jobs: the soak exercises failure paths, not simulation
# throughput. The manifest/dump pair is still the full golden matrix.
"$RUNNER" manifest --suite golden --insts 3000 --warmup 500 \
    --out "$TMP/manifest.jsonl"
"$RUNNER" dump --manifest "$TMP/manifest.jsonl" \
    --out "$TMP/direct.jsonl"

start_server() {
    "$SERVE" --unix "$SOCK" --queue 16 --drain-grace-ms 4000 \
        2>"$TMP/server-$1.log" &
    SERVER_PID=$!
    "$LOADGEN" ping --unix "$SOCK" --tries 100
}

start_server first

# --- 1. baseline: served results must match the in-process dump.
"$LOADGEN" replay --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --out "$TMP/served-1.jsonl"
cmp "$TMP/served-1.jsonl" "$TMP/direct.jsonl"

# --- 2. hostile input drill.
"$LOADGEN" abuse --unix "$SOCK" --manifest "$TMP/manifest.jsonl"

# --- 3. a client dies mid-stream while a slow reader is parked.
"$LOADGEN" slow --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --count 6 --delay-ms 40 &
SLOW_PID=$!
"$LOADGEN" replay --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --out "$TMP/served-doomed.jsonl" &
DOOMED_PID=$!
sleep 0.3
kill -KILL "$DOOMED_PID" 2>/dev/null || true
wait "$DOOMED_PID" 2>/dev/null || true
if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "serve_fault_injection: server died with the killed" \
         "client" >&2
    exit 1
fi
"$LOADGEN" replay --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --out "$TMP/served-2.jsonl"
cmp "$TMP/served-2.jsonl" "$TMP/direct.jsonl"
wait "$SLOW_PID"

# --- 4. SIGTERM mid-load: drain must finish and exit 0.
"$LOADGEN" bench --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --clients 4 --duration-sec 30 --tolerate-disconnect \
    >/dev/null 2>&1 &
BENCH_PID=$!
sleep 1
kill -TERM "$SERVER_PID"
set +e
wait "$SERVER_PID"
rc=$?
set -e
SERVER_PID=
if [ "$rc" -ne 0 ]; then
    echo "serve_fault_injection: drain under load exited $rc," \
         "expected 0" >&2
    exit 1
fi
# The bench fleet loses its server mid-run; --tolerate-disconnect
# makes that a clean stop rather than a failure.
wait "$BENCH_PID" || true

# --- 5. restart on the same socket path; same bytes; idle drain.
start_server second
"$LOADGEN" replay --unix "$SOCK" --manifest "$TMP/manifest.jsonl" \
    --out "$TMP/served-3.jsonl"
cmp "$TMP/served-3.jsonl" "$TMP/direct.jsonl"
kill -TERM "$SERVER_PID"
set +e
wait "$SERVER_PID"
rc=$?
set -e
SERVER_PID=
if [ "$rc" -ne 0 ]; then
    echo "serve_fault_injection: idle drain exited $rc, expected 0" >&2
    exit 1
fi

echo "serve_fault_injection: abuse -> client-kill -> drain-under-load" \
     "-> restart all served bit-identical results"
