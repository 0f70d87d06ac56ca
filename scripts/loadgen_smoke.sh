#!/usr/bin/env bash
# Loadgen smoke (`make loadgen`, also a CI step): boot itagd, run the
# SDK-driven load generator against it over real TCP, then shut the server
# down with SIGTERM to exercise the graceful drain. Fails on any non-2xx,
# per-item error, dropped SSE event or unbalanced books (the loadgen exits
# non-zero), and on an unclean server shutdown.
#
# Two legs: an in-memory store, then a durable one. In the durable leg's
# first pass itagd is SIGKILLed once the loadgen's simulated marketplace
# logs that half its budget is submitted, and booted again on the same WAL;
# the loadgen waits for /healthz, settles the calls the kill left ambiguous
# and checks the books. The daemon is then drained, booted again on the WAL
# and loaded once more — the restarted daemon must resume its ID counters,
# so no ID the second pass mints may be one the first pass was given.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${ITAGD_ADDR:-127.0.0.1:18080}"
BIN_DIR="$(mktemp -d)"
ITAGD_PID=""
LOADGEN_PID=""
trap 'for p in $ITAGD_PID $LOADGEN_PID; do kill "$p" 2>/dev/null || true; done; rm -rf "$BIN_DIR"' EXIT

go build -o "$BIN_DIR/itagd" ./cmd/itagd
go build -o "$BIN_DIR/loadgen" ./examples/loadgen

boot() {
  "$BIN_DIR/itagd" -addr "$ADDR" -db "$1" -quiet &
  ITAGD_PID=$!
}

# pass DB LOG [kill]: one boot → loadgen → SIGTERM drain cycle on store DB
# ("" = in-memory), the loadgen's output kept in LOG. With "kill", itagd is
# SIGKILLed and booted again on DB halfway through the simulated phase.
pass() {
  boot "$1"
  # The loadgen retries /healthz itself; it is the readiness probe.
  "$BIN_DIR/loadgen" -addr "http://$ADDR" \
    -taggers "${LOADGEN_TAGGERS:-100}" \
    -workers "${LOADGEN_WORKERS:-4}" \
    -batches "${LOADGEN_BATCHES:-2}" \
    -batch-size "${LOADGEN_BATCH_SIZE:-1000}" > "$2" 2>&1 &
  LOADGEN_PID=$!
  if [ "${3:-}" = kill ]; then
    until grep -q 'half its budget submitted' "$2"; do
      if ! kill -0 "$LOADGEN_PID" 2>/dev/null; then
        cat "$2"
        echo "loadgen_smoke: the loadgen ended before its simulated phase was half done" >&2
        exit 1
      fi
      sleep 0.02
    done
    kill -KILL "$ITAGD_PID"
    wait "$ITAGD_PID" 2>/dev/null || true
    echo "loadgen_smoke: SIGKILLed itagd halfway through the simulated phase; booting it again on $1" >&2
    boot "$1"
  fi
  local status=0
  wait "$LOADGEN_PID" || status=$?
  LOADGEN_PID=""
  cat "$2"
  [ "$status" -eq 0 ] || exit "$status"
  if [ "${3:-}" = kill ] && ! grep -q 'waiting for the server' "$2"; then
    echo "loadgen_smoke: the loadgen never saw the kill" >&2
    exit 1
  fi
  kill -TERM "$ITAGD_PID"
  if ! wait "$ITAGD_PID"; then
    echo "loadgen_smoke: itagd did not shut down cleanly" >&2
    exit 1
  fi
  ITAGD_PID=""
}

minted() { grep -oE '(prov|proj|tag)-[0-9]{6}' "$1" | sort -u; }

pass "" "$BIN_DIR/memory.log"

pass "$BIN_DIR/smoke.wal" "$BIN_DIR/durable-1.log" kill
pass "$BIN_DIR/smoke.wal" "$BIN_DIR/durable-2.log"
reused="$(comm -12 <(minted "$BIN_DIR/durable-1.log") <(minted "$BIN_DIR/durable-2.log"))"
if [ -z "$(minted "$BIN_DIR/durable-2.log")" ] || [ -n "$reused" ]; then
  echo "loadgen_smoke: the restarted itagd minted IDs its WAL already held: ${reused:-<none logged>}" >&2
  exit 1
fi
echo "loadgen_smoke: OK"
