#!/usr/bin/env bash
# Dispatch fault-injection gate: prove the distributed dispatcher
# survives the two deaths that matter and still produces bit-exact
# output.
#
#   1. dispatch the golden manifest across 4 local shard workers with
#      fault injection armed: the worker for shard 1 is SIGKILLed
#      mid-shard (first record committed, the rest outstanding), and
#      the dispatcher then "crashes" (exit 3) the instant it journals
#      that death -- no retry, no cleanup.
#   2. `resume` replays the journal and re-launches only unfinished
#      shards.
#   3. re-run one already-complete shard by hand to simulate an
#      over-eager operator, and merge everything --allow-dups: the
#      duplicate records must be verified byte-identical and dropped.
#   4. the merged stream must be byte-for-byte identical to the
#      in-process `dump` of the same manifest (cmp).
#
# ctest runs this as `dispatch_fault_injection`, so every CI job that runs ctest
# does (Release, Debug, Clang, ASan, TSan); locally:
#
#   cmake -B build -S . && cmake --build build --target stsim_runner
#   scripts/dispatch_fault_injection.sh build
set -euo pipefail

BUILD=${1:-build}
RUNNER="$BUILD/stsim_runner"
if [ ! -x "$RUNNER" ]; then
    echo "dispatch_fault_injection: $RUNNER not built" >&2
    exit 2
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$RUNNER" manifest --suite golden --out "$TMP/manifest.jsonl"

# --- 1. dispatch with a worker SIGKILLed mid-shard + dispatcher crash.
set +e
"$RUNNER" dispatch --manifest "$TMP/manifest.jsonl" --dir "$TMP/out" \
    --shards 4 --test-kill-shard 1 --test-die-after-kill
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "dispatch_fault_injection: expected simulated dispatcher" \
         "crash (exit 3), got exit $rc" >&2
    exit 1
fi
if [ -f "$TMP/out/shard-1.jsonl" ]; then
    echo "dispatch_fault_injection: killed shard must not have been" \
         "finalized" >&2
    exit 1
fi
grep -q '"type":"fail"' "$TMP/out/journal.jsonl" || {
    echo "dispatch_fault_injection: journal records no failure" >&2
    exit 1
}

# Orphaned workers from the crashed dispatcher may still be running;
# resume is designed to be safe against them (exclusive-rename
# finalize), so no cleanup here -- that IS the scenario.

# --- 2. resume: only unfinished shards re-launch.
"$RUNNER" resume --dir "$TMP/out"
for i in 0 1 2 3; do
    if [ ! -f "$TMP/out/shard-$i.jsonl" ]; then
        echo "dispatch_fault_injection: shard $i missing after" \
             "resume" >&2
        exit 1
    fi
done

# --- 3. an operator re-runs a completed shard; merge must tolerate
#        and verify the duplicates.
"$RUNNER" run --manifest "$TMP/manifest.jsonl" --shard 2/4 \
    --out "$TMP/rerun-2.jsonl"
"$RUNNER" merge --manifest "$TMP/manifest.jsonl" --allow-dups \
    --out "$TMP/merged.jsonl" \
    "$TMP"/out/shard-0.jsonl "$TMP"/out/shard-1.jsonl \
    "$TMP"/out/shard-2.jsonl "$TMP"/out/shard-3.jsonl \
    "$TMP/rerun-2.jsonl"

# --- 4. byte-for-byte equivalence with the in-process reference.
"$RUNNER" dump --manifest "$TMP/manifest.jsonl" --out "$TMP/direct.jsonl"
cmp "$TMP/merged.jsonl" "$TMP/direct.jsonl"

echo "dispatch_fault_injection: kill -> crash -> resume -> dup-merge" \
     "is bit-identical to the in-process dump"
