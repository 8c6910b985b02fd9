#!/usr/bin/env bash
# Snapshot/fork equivalence gate: the warmup checkpoint API must never
# change a result byte. Three properties, each enforced with cmp:
#
#   1. A memoized dump of the pinned golden matrix (every job its own
#      warmup class: policies change warmup behavior) is byte-identical
#      to a from-scratch dump.
#   2. A run-length sweep forked from one on-disk `stsim_runner
#      snapshot` checkpoint (--from-snapshot) is byte-identical to a
#      from-scratch dump, through both the dump and sharded-run paths.
#   3. A memoized sweep runs its warmup exactly once for the whole wave
#      and still commits byte-identical results.
#   4. A memoized sweep over 3 warmup classes x 4 run lengths, each
#      class's jobs contiguous, on 4 workers: workers waiting on one
#      class's warmup warm the next classes instead (helpers), and the
#      wave still runs one warmup per class and commits byte-identical
#      results.
#
# CI runs this on every PR; locally:
#
#   cmake -B build -S . && cmake --build build --target stsim_runner
#   scripts/snapshot_equivalence.sh build
set -euo pipefail

BUILD=${1:-build}
RUNNER="$BUILD/stsim_runner"
if [ ! -x "$RUNNER" ]; then
    echo "snapshot_equivalence: $RUNNER not built" >&2
    exit 2
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# expect_warmups ERR_FILE TEXT: the memoized dump's stderr reports TEXT.
expect_warmups() {
    grep -qF "$2" "$1" || {
        echo "snapshot_equivalence: expected '$2':" >&2
        cat "$1" >&2
        exit 1
    }
}

# 1. Memoized golden matrix == scratch golden matrix. Small run
# lengths: this is an equivalence check, not a perf demo.
"$RUNNER" manifest --suite golden --insts 3000 --warmup 500 \
    --out "$TMP/golden.jsonl"
"$RUNNER" dump --manifest "$TMP/golden.jsonl" --out "$TMP/g_scratch.jsonl"
"$RUNNER" dump --manifest "$TMP/golden.jsonl" --memoize-warmup \
    --out "$TMP/g_memo.jsonl"
cmp "$TMP/g_scratch.jsonl" "$TMP/g_memo.jsonl"

# 2. A run-length sweep (same benchmark+policy, growing measured runs)
# shares one warmup class; fork every job from one on-disk snapshot.
for n in 2000 3000 4000; do
    "$RUNNER" manifest --suite golden --insts "$n" --warmup 1000 \
        2>/dev/null | head -n 1
done > "$TMP/sweep.jsonl"
"$RUNNER" snapshot --manifest "$TMP/sweep.jsonl" --index 0 \
    --out "$TMP/warm.snap"
"$RUNNER" dump --manifest "$TMP/sweep.jsonl" --out "$TMP/s_scratch.jsonl"
"$RUNNER" dump --manifest "$TMP/sweep.jsonl" \
    --from-snapshot "$TMP/warm.snap" --out "$TMP/s_fork.jsonl"
cmp "$TMP/s_scratch.jsonl" "$TMP/s_fork.jsonl"
"$RUNNER" run --manifest "$TMP/sweep.jsonl" --shard 0/1 \
    --from-snapshot "$TMP/warm.snap" --out "$TMP/s_fork_run.jsonl"
"$RUNNER" merge --out "$TMP/s_fork_merged.jsonl" \
    --manifest "$TMP/sweep.jsonl" "$TMP/s_fork_run.jsonl"
cmp "$TMP/s_scratch.jsonl" "$TMP/s_fork_merged.jsonl"

# 3. Memoized sweep: one warmup for the whole wave, same bytes.
"$RUNNER" dump --manifest "$TMP/sweep.jsonl" --memoize-warmup \
    --out "$TMP/s_memo.jsonl" 2> "$TMP/s_memo.err"
cmp "$TMP/s_scratch.jsonl" "$TMP/s_memo.jsonl"
expect_warmups "$TMP/s_memo.err" "1 warmup(s) for 3 jobs"

# 4. Memoized sweep with more classes than one worker warms at a time.
# The 50K-instruction warmups outlast the other workers' job starts, so
# they find their class being warmed and warm the next classes.
for c in 1 2 3; do
    for n in 2000 3000 4000 5000; do
        "$RUNNER" manifest --suite golden --insts "$n" --warmup 50000 \
            2>/dev/null | sed -n "${c}p"
    done
done > "$TMP/classes.jsonl"
"$RUNNER" dump --manifest "$TMP/classes.jsonl" --jobs 4 \
    --out "$TMP/c_scratch.jsonl"
"$RUNNER" dump --manifest "$TMP/classes.jsonl" --jobs 4 --memoize-warmup \
    --out "$TMP/c_memo.jsonl" 2> "$TMP/c_memo.err"
cmp "$TMP/c_scratch.jsonl" "$TMP/c_memo.jsonl"
expect_warmups "$TMP/c_memo.err" "3 warmup(s) for 12 jobs"

echo "snapshot_equivalence: memoized matrix, forked sweep (dump and" \
     "sharded run), memoized sweep and memoized 3-class sweep are all" \
     "bit-identical to from-scratch dumps"
