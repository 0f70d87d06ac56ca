#!/usr/bin/env sh
# test_bench_gate.sh — regression tests for the bench gate itself.
#
# The gate once passed silently when artifacts were missing or carried no
# Gates key; these cases pin the strict behavior:
#   1. the committed canonical artifacts pass,
#   2. a missing artifact fails (exit 2),
#   3. an artifact with no Gates key fails (exit 1),
#   4. an artifact whose ratio is below its gate fails (exit 1),
#   6. the S9 capacity artifact is part of the canonical set: a directory
#      holding every artifact but BENCH_capacity.json fails (exit 2),
#   7. the serving artifact must gate allocations: BENCH_serving.json
#      without the cached_detail_allocs_under_10 gate is a test failure,
#      and an allocs/op regression (ratio below min) fails (exit 1),
#   8. the S10 chaos artifact is part of the canonical set: a directory
#      holding every artifact but BENCH_chaos.json fails (exit 2), and the
#      committed artifact must carry the zero-acked-write-loss gate.
# (Cases 5 and 9 pinned BENCH_cluster.json and went with experiment S8.)
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

# 6. The capacity artifact is required in no-argument mode.
mkdir "$TMP/nocapacity"
for f in BENCH_chaos.json BENCH_serving.json; do
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
for f in BENCH_capacity.json BENCH_serving.json; do
  cp "$ROOT/$f" "$TMP/nochaos/$f"
done
set +e
BENCH_GATE_DIR="$TMP/nochaos" "$GATE" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "canonical set without BENCH_chaos.json exited $rc, want 2"
grep -q '"name": *"quorum_zero_acked_write_loss"' "$ROOT/BENCH_chaos.json" \
  || fail "BENCH_chaos.json lost the quorum_zero_acked_write_loss gate"

echo "test_bench_gate.sh: ok"
