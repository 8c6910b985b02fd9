#!/usr/bin/env bash
# Snapshot/fork equivalence gate: the warmup checkpoint API and the
# memoized wave must never change a result byte. Five properties, each
# enforced with cmp:
#
#   1. A memoized dump of the pinned golden matrix (every job its own
#      warmup class: policies change warmup behavior) is byte-identical
#      to a from-scratch dump.
#   2. A run-length sweep forked from one on-disk `stsim_runner
#      snapshot` checkpoint (--from-snapshot) is byte-identical to a
#      from-scratch dump, through both the dump and sharded-run paths.
#   3. A memoized sweep runs its warmup exactly once for the whole wave
#      and still commits byte-identical results.
#   4. A memoized sweep over 6 warmup classes x 3 run lengths, each
#      class's jobs contiguous, on 4 workers: each class is one task
#      (one warmup, then one measured sweep to its longest run), the
#      classes run side by side, and the wave still runs one warmup
#      per class and commits byte-identical results.
#   5. A memoized sweep over 2 warmup classes x 3 run lengths x 2 cc3
#      idle factors, the classes interleaved, on 4 workers: each
#      class's sweep meters its second idle factor with an extra power
#      meter, and the wave runs one warmup per class and commits
#      byte-identical results.
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

# 4. Memoized sweep with more classes than workers. Classes 1-4 start
# side by side; class 1's 20K-instruction warmup is short next to the
# others' 100K, so its worker moves on to class 5 while classes 2-4
# are still warming, and class 6 starts as the next worker frees up.
for c in 1 2 3 4 5 6; do
    warmup=100000
    [ "$c" = 1 ] && warmup=20000
    for n in 2000 3000 4000; do
        "$RUNNER" manifest --suite golden --insts "$n" --warmup "$warmup" \
            2>/dev/null | sed -n "${c}p"
    done
done > "$TMP/classes.jsonl"
"$RUNNER" dump --manifest "$TMP/classes.jsonl" --jobs 4 \
    --out "$TMP/c_scratch.jsonl"
"$RUNNER" dump --manifest "$TMP/classes.jsonl" --jobs 4 --memoize-warmup \
    --out "$TMP/c_memo.jsonl" 2> "$TMP/c_memo.err"
cmp "$TMP/c_scratch.jsonl" "$TMP/c_memo.jsonl"
expect_warmups "$TMP/c_memo.err" "6 warmup(s) for 18 jobs"

# 5. Memoized sweep over run lengths and power: per class, 3 run
# lengths x cc3 idle factors 0.10 (the manifest's) and 0.20, the two
# classes interleaved in the manifest. Each class is one machine whose
# sweep collects every job at its own run length and reads the 0.20
# jobs' energy from an extra meter.
idle10='"idleFactor":"0x1.999999999999ap-4"'
idle20='"idleFactor":"0x1.999999999999ap-3"'
for n in 2000 3000 4000; do
    "$RUNNER" manifest --suite golden --insts "$n" --warmup 20000 \
        2>/dev/null > "$TMP/golden_$n.jsonl"
    for line in 3 8; do
        for idle in "$idle10" "$idle20"; do
            sed -n "${line}p" "$TMP/golden_$n.jsonl" |
                sed "s/$idle10/$idle/"
        done
    done
done > "$TMP/power.jsonl"
grep -qF "$idle20" "$TMP/power.jsonl" || {
    echo "snapshot_equivalence: idle factor substitution failed" >&2
    exit 1
}
"$RUNNER" dump --manifest "$TMP/power.jsonl" --jobs 4 \
    --out "$TMP/p_scratch.jsonl"
"$RUNNER" dump --manifest "$TMP/power.jsonl" --jobs 4 --memoize-warmup \
    --out "$TMP/p_memo.jsonl" 2> "$TMP/p_memo.err"
cmp "$TMP/p_scratch.jsonl" "$TMP/p_memo.jsonl"
expect_warmups "$TMP/p_memo.err" "2 warmup(s) for 12 jobs"

echo "snapshot_equivalence: memoized matrix, forked sweep (dump and" \
     "sharded run), memoized sweep, memoized 6-class sweep and memoized" \
     "power sweep are all bit-identical to from-scratch dumps"
