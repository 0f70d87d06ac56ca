#!/usr/bin/env bash
# Loadgen smoke (`make loadgen`, also a CI step): boot itagd, run the
# SDK-driven load generator against it over real TCP, then shut the server
# down with SIGTERM to exercise the graceful drain. Fails on any non-2xx,
# per-item error, or dropped SSE event (the loadgen exits non-zero), and on
# an unclean server shutdown.
#
# Two legs: an in-memory store, then a durable one that is drained, booted
# again on the same WAL and loaded once more — the restarted daemon must
# resume its ID counters, so no ID the second pass mints may be one the first
# pass was given.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${ITAGD_ADDR:-127.0.0.1:18080}"
BIN_DIR="$(mktemp -d)"
ITAGD_PID=""
trap '[ -z "$ITAGD_PID" ] || kill "$ITAGD_PID" 2>/dev/null || true; rm -rf "$BIN_DIR"' EXIT

go build -o "$BIN_DIR/itagd" ./cmd/itagd
go build -o "$BIN_DIR/loadgen" ./examples/loadgen

# pass DB LOG: one boot → loadgen → SIGTERM drain cycle on store DB ("" =
# in-memory), the loadgen's output kept in LOG.
pass() {
  "$BIN_DIR/itagd" -addr "$ADDR" -db "$1" -quiet &
  ITAGD_PID=$!
  # The loadgen retries /healthz itself; it is the readiness probe.
  "$BIN_DIR/loadgen" -addr "http://$ADDR" \
    -taggers "${LOADGEN_TAGGERS:-100}" \
    -workers "${LOADGEN_WORKERS:-4}" \
    -batches "${LOADGEN_BATCHES:-2}" \
    -batch-size "${LOADGEN_BATCH_SIZE:-1000}" 2>&1 | tee "$2"
  kill -TERM "$ITAGD_PID"
  if ! wait "$ITAGD_PID"; then
    echo "loadgen_smoke: itagd did not shut down cleanly" >&2
    exit 1
  fi
  ITAGD_PID=""
}

minted() { grep -oE '(prov|proj|tag)-[0-9]{6}' "$1" | sort -u; }

pass "" "$BIN_DIR/memory.log"

pass "$BIN_DIR/smoke.wal" "$BIN_DIR/durable-1.log"
pass "$BIN_DIR/smoke.wal" "$BIN_DIR/durable-2.log"
reused="$(comm -12 <(minted "$BIN_DIR/durable-1.log") <(minted "$BIN_DIR/durable-2.log"))"
if [ -z "$(minted "$BIN_DIR/durable-2.log")" ] || [ -n "$reused" ]; then
  echo "loadgen_smoke: the restarted itagd minted IDs its WAL already held: ${reused:-<none logged>}" >&2
  exit 1
fi
echo "loadgen_smoke: OK"
