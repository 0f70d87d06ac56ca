GO ?= go

# Fuzz budget per target; CI smoke uses the default, nightly passes 10m.
FUZZTIME ?= 10s

.PHONY: all build test vet race race-full fuzz metrics-conformance lint check loadgen benchmark-selftest bench bench-experiments bench-serving bench-capacity bench-chaos bench-gate chaos histories clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Concurrent stress under the race detector (PR acceptance gate): the store
# and core suites, the interned quality hot path and its parity property
# tests (quality + rfd + vocab interner), the HTTP layer (lock-free
# metrics scrapes vs request writers), and the daemon itself (boot, drain
# and restart race real listeners against the resume).
race:
	$(GO) test -race ./internal/store/... ./internal/core/... ./internal/quality/... ./internal/rfd/... ./internal/vocab/... ./internal/api/... ./internal/server/... ./internal/ring/... ./internal/cluster/... ./internal/capacity/... ./client/... ./cmd/itagd/...

# Everything under the race detector (nightly).
race-full:
	$(GO) test -race ./...

# Fuzz smoke over WAL recovery: corrupted segments and snapshots must never
# panic or resurrect deleted keys; and over the record encoders: every
# catalog record must encode to json.Marshal's bytes (or its error). CI runs
# FUZZTIME=10s per target on PRs and FUZZTIME=10m nightly.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentRecovery$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzRecordEncoding$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzExposition$$' -fuzztime $(FUZZTIME) ./internal/api

# Prometheus exposition conformance: golden + grammar + histogram
# semantics + taxonomy/docs drift (CI metrics-conformance step).
metrics-conformance:
	$(GO) test ./internal/api -run 'Exposition|Histogram|FloatFormatting|FamiliesStableOrder|BucketIndex|Observe'
	$(GO) test ./internal/errs
	$(GO) test ./internal/server -run 'Taxonomy|FaultInjection|Corruption|SSEDropped|ScrapeRace|APIDocs'
	./scripts/test_bench_gate.sh

# Static analysis beyond vet (CI lint job; tools fetched on demand).
lint:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@2023.1.7 && staticcheck ./...
	$(GO) install golang.org/x/vuln/cmd/govulncheck@latest && govulncheck ./...

# The tier-1 verify plus vet — what CI runs. benchmark/ is its own module
# (replace itag => ../), so ./... does not reach it: vet it too, or an API
# move in the root module breaks the harness unseen.
check: vet build test
	cd benchmark && $(GO) vet ./...

# The benchmark harness's own tests and a seconds-long end-to-end pass over
# real itagd children (see benchmark/README.md).
benchmark-selftest:
	bash benchmark/run.sh --selftest

# API smoke: boot itagd on a memory store, drive the v1 batch + SSE
# surface with the SDK load generator, then SIGTERM-drain the server; then
# the same on a WAL, restarted on it and loaded again. Fails on any non-2xx,
# per-item error or dropped SSE event, and on an ID minted twice.
loadgen:
	./scripts/loadgen_smoke.sh

# Paper tables + systems benchmarks, one iteration each.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

bench-experiments:
	$(GO) run ./cmd/itag-bench -experiment all

# The zero-allocation cached-serving gates (S7): allocs/op and p99 of a
# cached ResourceDetail hit through the full HTTP stack. Recorded to
# BENCH_serving.json; fails if the <10 allocs/op gate or the 10µs p99 gate
# is missed.
bench-serving:
	$(GO) run ./cmd/itag-bench -experiment s7 -record

# Open-loop admission-control capacity at 2x the knee plus the
# kill-the-load autoscaling drill (S9), recorded to BENCH_capacity.json;
# fails if the limited path misses its SLO/goodput gates or the unlimited
# path fails to demonstrate overload collapse.
bench-capacity:
	$(GO) run ./cmd/itag-bench -experiment s9 -record

# Seeded chaos drill against the 3-node quorum cluster (S10): partition,
# disk stall, leader kill + promote. Recorded to BENCH_chaos.json; fails on
# acked-write loss, an unbounded operation, or an unrecovered degradation.
bench-chaos:
	$(GO) run ./cmd/itag-bench -experiment s10 -record

# The same S10 drill as a test under the race detector (nightly): every
# replication stream, breaker and quorum waiter races the injected faults.
chaos:
	$(GO) test -race -run TestS10ChaosDrill -count=1 -v ./internal/bench

# The recorded-history checker over HISTORY_SEEDS seeded fault schedules
# under the race detector (nightly; tier-1 runs the first 25 without it). A
# failing seed prints the line that replays it.
HISTORY_SEEDS ?= 500
histories:
	$(GO) test -race -run TestReplicationHistories -count=1 -timeout 30m ./internal/cluster -history-seeds $(HISTORY_SEEDS)

# Re-check recorded BENCH_*.json artifacts against their committed gates.
bench-gate:
	./scripts/bench_gate.sh

clean:
	$(GO) clean ./...
	rm -f itag.wal
