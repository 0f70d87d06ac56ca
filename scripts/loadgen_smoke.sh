#!/usr/bin/env bash
# Loadgen smoke (`make loadgen`, also a CI step): boot itagd on an
# in-memory store, run the SDK-driven load generator against it over real
# TCP, then shut the server down with SIGTERM to exercise the graceful
# drain. Fails on any non-2xx, per-item error, or dropped SSE event (the
# loadgen exits non-zero), and on an unclean server shutdown.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${ITAGD_ADDR:-127.0.0.1:18080}"
BIN_DIR="$(mktemp -d)"
trap 'rm -rf "$BIN_DIR"' EXIT

go build -o "$BIN_DIR/itagd" ./cmd/itagd
go build -o "$BIN_DIR/loadgen" ./examples/loadgen

"$BIN_DIR/itagd" -addr "$ADDR" -db "" -quiet &
ITAGD_PID=$!
trap 'kill "$ITAGD_PID" 2>/dev/null || true; rm -rf "$BIN_DIR"' EXIT

# The loadgen retries /healthz itself; it is the readiness probe.
"$BIN_DIR/loadgen" -addr "http://$ADDR" \
  -taggers "${LOADGEN_TAGGERS:-100}" \
  -workers "${LOADGEN_WORKERS:-4}" \
  -batches "${LOADGEN_BATCHES:-2}" \
  -batch-size "${LOADGEN_BATCH_SIZE:-1000}"

kill -TERM "$ITAGD_PID"
if ! wait "$ITAGD_PID"; then
  echo "loadgen_smoke: itagd did not shut down cleanly" >&2
  exit 1
fi
echo "loadgen_smoke: OK"
