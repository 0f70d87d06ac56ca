#!/usr/bin/env sh
# test_bench_gate.sh — regression tests for the bench gate itself.
#
# The gate once passed silently when artifacts were missing or carried no
# Gates key; these cases pin the strict behavior:
#   1. the committed canonical artifacts pass,
#   2. a missing artifact fails (exit 2),
#   3. an artifact with no Gates key fails (exit 1),
#   4. an artifact whose ratio is below its gate fails (exit 1),
#   5. the S8 cluster artifact is part of the canonical set: a directory
#      holding every artifact but BENCH_cluster.json fails (exit 2),
#   6. the S9 capacity artifact is part of the canonical set: a directory
#      holding every artifact but BENCH_capacity.json fails (exit 2),
#   7. the serving artifact must gate allocations: BENCH_serving.json
#      without the cached_detail_allocs_under_10 gate is a test failure,
#      and an allocs/op regression (ratio below min) fails (exit 1),
#   8. the S10 chaos artifact is part of the canonical set: a directory
#      holding every artifact but BENCH_chaos.json fails (exit 2), and the
#      committed artifact must carry the zero-acked-write-loss gate.
#   9. a recorded artifact's table and gate agree: the speedup cell of
#      BENCH_cluster.json's cluster row is its cluster_3node_vs_single
#      gate ratio to two decimals (the table once printed max-of-each-side
#      beside a gate taken from the best pair: row 1.81, gate 2.105), and
#      a copy whose cell is edited away from the gate is caught.
#
# Run from anywhere: scripts/test_bench_gate.sh
set -eu
ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
GATE="$ROOT/scripts/bench_gate.sh"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "test_bench_gate.sh: FAIL: $1" >&2
  exit 1
}

# 1. Committed artifacts pass.
"$GATE" >/dev/null 2>&1 || fail "committed artifacts did not pass the gate"

# 2. Missing artifact fails with exit 2.
set +e
BENCH_GATE_DIR="$TMP" "$GATE" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "missing artifacts exited $rc, want 2"

# 3. No Gates key fails with exit 1.
printf '{"id":"s7-serving","gates":[]}\n' > "$TMP/BENCH_nogates.json"
set +e
"$GATE" "$TMP/BENCH_nogates.json" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "ungated artifact exited $rc, want 1"

# 4. Ratio below the committed minimum fails with exit 1.
printf '{"id":"s7-serving","gates":[{"name":"serving","ratio":0.5,"min":1.1}]}\n' > "$TMP/BENCH_below.json"
set +e
"$GATE" "$TMP/BENCH_below.json" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "below-gate artifact exited $rc, want 1"

# 5. The cluster artifact is required in no-argument mode.
mkdir "$TMP/nocluster"
for f in BENCH_capacity.json BENCH_chaos.json BENCH_quality.json BENCH_serving.json BENCH_store.json; do
  cp "$ROOT/$f" "$TMP/nocluster/$f"
done
set +e
BENCH_GATE_DIR="$TMP/nocluster" "$GATE" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "canonical set without BENCH_cluster.json exited $rc, want 2"

# 6. The capacity artifact is required in no-argument mode.
mkdir "$TMP/nocapacity"
for f in BENCH_chaos.json BENCH_cluster.json BENCH_quality.json BENCH_serving.json BENCH_store.json; do
  cp "$ROOT/$f" "$TMP/nocapacity/$f"
done
set +e
BENCH_GATE_DIR="$TMP/nocapacity" "$GATE" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "canonical set without BENCH_capacity.json exited $rc, want 2"

# 7. The serving artifact carries the allocs/op gate, and a regression
#    below its committed minimum fails.
grep -q '"name": *"cached_detail_allocs_under_10"' "$ROOT/BENCH_serving.json" \
  || fail "BENCH_serving.json lost the cached_detail_allocs_under_10 gate"
sed '/"name": *"cached_detail_allocs_under_10"/{n
s/"ratio": *[0-9.eE+-]*/"ratio": 0.2/
}' "$ROOT/BENCH_serving.json" > "$TMP/BENCH_allocregress.json"
set +e
"$GATE" "$TMP/BENCH_allocregress.json" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "allocs/op regression exited $rc, want 1"

# 8. The chaos artifact is required in no-argument mode and must carry the
#    zero-acked-write-loss gate.
mkdir "$TMP/nochaos"
for f in BENCH_capacity.json BENCH_cluster.json BENCH_quality.json BENCH_serving.json BENCH_store.json; do
  cp "$ROOT/$f" "$TMP/nochaos/$f"
done
set +e
BENCH_GATE_DIR="$TMP/nochaos" "$GATE" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "canonical set without BENCH_chaos.json exited $rc, want 2"
grep -q '"name": *"quorum_zero_acked_write_loss"' "$ROOT/BENCH_chaos.json" \
  || fail "BENCH_chaos.json lost the quorum_zero_acked_write_loss gate"

# 9. The cluster artifact's speedup cell is its gate ratio.
# speedup_matches_gate FILE: the last cell of the "3-node cluster" row
# equals the cluster_3node_vs_single ratio printed with two decimals.
speedup_matches_gate() {
  cell=$(awk '/"3-node cluster/ {row=1} row && /^ *\]/ {print prev; exit} {prev=$0}' "$1" | tr -d ' ",')
  gate=$(awk '/"name": *"cluster_3node_vs_single"/ {getline; gsub(/[^0-9.eE+-]/, ""); printf "%.2f", $0; exit}' "$1")
  [ -n "$cell" ] && [ "$cell" = "$gate" ]
}
speedup_matches_gate "$ROOT/BENCH_cluster.json" \
  || fail "BENCH_cluster.json: speedup cell \"$cell\" does not match gate ratio \"$gate\""
sed '/"3-node cluster/,/\]/s/^\( *\)"[0-9.]*"$/\1"0.01"/' "$ROOT/BENCH_cluster.json" > "$TMP/BENCH_cellskew.json"
if speedup_matches_gate "$TMP/BENCH_cellskew.json"; then
  fail "a cluster artifact whose speedup cell disagrees with its gate went unnoticed"
fi

echo "test_bench_gate.sh: ok"
