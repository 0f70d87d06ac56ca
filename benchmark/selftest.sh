#!/usr/bin/env bash
# Harness self-tests: `bash benchmark/run.sh --selftest` from the root of a
# checkout (run.sh sets GOCACHE and friends). Static checks, the unit tests
# at three core counts, then one multi-node deployment under the race
# detector. The benchmark is a module of its own, so the repository's
# `go test ./...` does not run these.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
cd "$root/benchmark"

unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt: $unformatted" >&2
  exit 1
fi
go vet ./...
for procs in 1 2 4; do
  echo "== go test, GOMAXPROCS=$procs"
  GOMAXPROCS=$procs go test -count=1 -timeout 120s ./...
done

echo "== quorum_mixed under the race detector (harness and itagd both built -race)"
(cd "$root" && go build -race -o "$build/itagd-race" ./cmd/itagd)
go build -race -o "$build/itag-benchmark-race" .
cd "$root"
ITAG_BENCH_ITAGD="$build/itagd-race" ITAG_BENCH_COMMIT=selftest \
  "$build/itag-benchmark-race" --workload quorum_mixed --seed 1 --seconds 1 --trace 1 | tail -n 1
echo "selftest: ok"
