#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"). Run from the root
# of a checkout. Builds cmd/itagd and the harness from source into
# .bench_build/ (git-ignored; Go's caches live there too, so nothing is
# written outside the checkout), then hands every argument to the harness.
#
#   bash benchmark/run.sh --workload tag_durable --seed 1 --seconds 16 --trace 0
#   bash benchmark/run.sh --selftest
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build" "$root/benchmark/out"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOENV=off \
  GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

if [[ "${1:-}" == "--selftest" ]]; then
  exec bash "$root/benchmark/selftest.sh"
fi

# Both builds fail in a directory that lacks the repository's sources, which
# is what makes the benchmark refuse to run without the program it measures.
go build -o "$build/itagd" ./cmd/itagd
(cd benchmark && go build -o "$build/itag-benchmark" .)

export ITAG_BENCH_ITAGD="$build/itagd"
if [[ -z "${ITAG_BENCH_COMMIT:-}" ]]; then
  ITAG_BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo "not-a-git-checkout")
  export ITAG_BENCH_COMMIT
fi
exec "$build/itag-benchmark" "$@"
