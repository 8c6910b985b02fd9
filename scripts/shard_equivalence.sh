#!/usr/bin/env bash
# Shard-equivalence gate: run the pinned golden matrix as 4 separate
# stsim_runner subprocesses (--shard i/4), merge the JSONL shard
# outputs back into submission order, and require the merged stream to
# be byte-identical to an in-process `dump` of the same manifest. Then
# run a paper suite (fig1 at 2K measured / 500 warmup instructions) as
# 3 shards and require `report` to print the same table from their
# merge as from the in-process dump.
# CI runs this on every PR; locally:
#
#   cmake -B build -S . && cmake --build build --target stsim_runner
#   scripts/shard_equivalence.sh build
set -euo pipefail

BUILD=${1:-build}
RUNNER="$BUILD/stsim_runner"
if [ ! -x "$RUNNER" ]; then
    echo "shard_equivalence: $RUNNER not built" >&2
    exit 2
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$RUNNER" manifest --suite golden --out "$TMP/manifest.jsonl"
total=$(wc -l < "$TMP/manifest.jsonl")

pids=()
for i in 0 1 2 3; do
    "$RUNNER" run --manifest "$TMP/manifest.jsonl" --shard "$i/4" \
        --out "$TMP/shard$i.jsonl" &
    pids+=("$!")
done
for p in "${pids[@]}"; do
    wait "$p"
done

# The manifest itself is the authority on the expected record count.
"$RUNNER" merge --out "$TMP/merged.jsonl" --manifest "$TMP/manifest.jsonl" \
    "$TMP"/shard0.jsonl "$TMP"/shard1.jsonl \
    "$TMP"/shard2.jsonl "$TMP"/shard3.jsonl
"$RUNNER" dump --manifest "$TMP/manifest.jsonl" --out "$TMP/direct.jsonl"

cmp "$TMP/merged.jsonl" "$TMP/direct.jsonl"
echo "shard_equivalence: 4-shard merge is bit-identical to the" \
     "in-process dump ($total results)"

# A paper figure through the same path: shards, merge, report.
"$RUNNER" manifest --suite fig1 --insts 2000 --warmup 500 \
    --out "$TMP/fig1.jsonl"
pids=()
for i in 0 1 2; do
    "$RUNNER" run --manifest "$TMP/fig1.jsonl" --shard "$i/3" \
        --out "$TMP/fig1_shard$i.jsonl" &
    pids+=("$!")
done
for p in "${pids[@]}"; do
    wait "$p"
done
"$RUNNER" merge --out "$TMP/fig1_merged.jsonl" \
    --manifest "$TMP/fig1.jsonl" "$TMP"/fig1_shard{0,1,2}.jsonl
"$RUNNER" dump --manifest "$TMP/fig1.jsonl" --out "$TMP/fig1_direct.jsonl"
"$RUNNER" report --suite fig1 "$TMP/fig1_merged.jsonl" \
    > "$TMP/fig1_merged.txt"
"$RUNNER" report --suite fig1 "$TMP/fig1_direct.jsonl" \
    > "$TMP/fig1_direct.txt"
cmp "$TMP/fig1_merged.txt" "$TMP/fig1_direct.txt"
echo "shard_equivalence: fig1's report from a 3-shard merge equals the" \
     "one from the in-process dump"
