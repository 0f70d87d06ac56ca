#!/usr/bin/env sh
# bench_gate.sh — compare recorded benchmark artifacts against their
# committed acceptance gates.
#
# Each gated experiment (S7 cached serving, S9 admission-control capacity,
# S10 chaos drill) embeds its measured ratio and the committed minimum in
# its BENCH_*.json artifact.
# CI's bench-smoke job calls this script on the *committed* artifacts
# first — failing a build that commits a baseline below its own gate —
# and then reruns the experiments with `-record`, which itself exits
# non-zero if any freshly measured ratio regresses below the gate. The
# comparator is `itag-bench -verify-gates`, so no jq or python dependency
# is needed.
#
# In no-argument mode the canonical artifact set is REQUIRED: a missing
# file fails the gate instead of silently shrinking the set (a glob that
# matches nothing, or one deleted artifact, must never read as a pass).
#
# Usage: scripts/bench_gate.sh [BENCH_file.json ...]
#   BENCH_GATE_DIR overrides the artifact directory (default: repo root;
#   used by scripts/test_bench_gate.sh).
set -eu
ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
DIR="${BENCH_GATE_DIR:-$ROOT}"

if [ "$#" -eq 0 ]; then
  set -- BENCH_capacity.json BENCH_chaos.json BENCH_serving.json
fi

missing=0
abs=""
for f in "$@"; do
  case "$f" in
    /*) p="$f" ;;
    *) p="$DIR/$f" ;;
  esac
  if [ ! -f "$p" ]; then
    echo "bench_gate.sh: missing artifact: $f (run: go run ./cmd/itag-bench -experiment s7,s9,s10 -record)" >&2
    missing=$((missing + 1))
    continue
  fi
  abs="$abs $p"
done
if [ "$missing" -gt 0 ]; then
  exit 2
fi

cd "$ROOT"
# shellcheck disable=SC2086
exec go run ./cmd/itag-bench -verify-gates $abs
