GO ?= go

# Fuzz budget per target; CI smoke uses the default, nightly passes 10m.
FUZZTIME ?= 10s

.PHONY: all build test vet race race-full fuzz metrics-conformance lint check loadgen benchmark-selftest bench bench-experiments golden histories loc clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Concurrent stress under the race detector (PR acceptance gate): the store
# and core suites, the interned quality hot path and its parity property
# tests (quality + rfd + vocab interner), the marketplace simulators and the
# review records they keep, which the in-process harness's engines stepping
# at once may share (crowd), the HTTP layer (lock-free metrics scrapes vs request
# writers, the pooled request and response buffers, the admission gate
# under concurrent completions) and the JSON codec it shares with the store
# and the SDK (wire), and the daemon itself (boot, drain and restart race
# real listeners against the resume), and the chaos schedules, whose disk
# hook runs on the store goroutines of every node in a process.
race:
	$(GO) test -race ./internal/store/... ./internal/core/... ./internal/quality/... ./internal/rfd/... ./internal/vocab/... ./internal/crowd/... ./internal/api/... ./internal/server/... ./internal/wire/... ./internal/ring/... ./internal/cluster/... ./internal/chaos/... ./client/... ./cmd/itagd/...

# Everything under the race detector (nightly).
race-full:
	$(GO) test -race ./...

# Fuzz smoke over WAL recovery: corrupted segments and snapshots must never
# panic, and a store that still opens must read as the store model of a
# prefix of its history (no resurrected delete), and any bytes as a snapshot
# must be refused as corruption or load a state whose export loads back to
# the same model; over the tree's sorted merge: every multi-record apply
# leaves each table equal to the model and within the node invariants
# (TestStoreModel holds every read-back path to the same model in tier-1);
# over the record encoders: every catalog
# record must encode to json.Marshal's bytes (or its error), and decode back
# to json.Unmarshal's value; over the WAL frame decoder: any frame body
# decodes to json.Unmarshal's Record or is left to it; over the SDK's
# direct decode of the dashboard and task types: what it accepts
# json.Unmarshal decodes to an equal value, and the decode errors exactly when
# json's does; over the SDK's task-route request bodies and the server's
# task-route responses: json.Marshal's bytes; and over the task routes'
# direct request decoders: what they accept the strict encoding/json decode
# accepts to an equal value, and the route answers what that decode decides;
# and over the export page's pieces: concatenated, encoding/json's bytes.
# CI runs FUZZTIME=10s per target on PRs and FUZZTIME=10m nightly.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentRecovery$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzApply$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzRecordEncoding$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzExposition$$' -fuzztime $(FUZZTIME) ./internal/api
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeParity$$' -fuzztime $(FUZZTIME) ./client
	$(GO) test -run '^$$' -fuzz '^FuzzRequestBodies$$' -fuzztime $(FUZZTIME) ./client
	$(GO) test -run '^$$' -fuzz '^FuzzRequestDecodeParity$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzTaskResponseEncoding$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzExportPageParity$$' -fuzztime $(FUZZTIME) ./internal/server

# Prometheus exposition conformance: golden + grammar + histogram
# semantics + route counting + taxonomy/docs drift + a cluster node's one
# exposition (CI metrics-conformance step).
metrics-conformance:
	$(GO) test ./internal/api -run 'Exposition|Histogram|FloatFormatting|FamiliesStableOrder|BucketIndex|Observe|Track|RecoverTurnsPanic'
	$(GO) test ./internal/errs
	$(GO) test ./internal/server -run 'Taxonomy|FaultInjection|Corruption|SSEDropped|ScrapeRace|APIDocs'
	$(GO) test ./internal/cluster -run 'PromHandler|FollowerServedRequestsAreCounted|ClusterRoutingReplicationAndFollowerReads'

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

# Rewrite the paper's golden tables (internal/bench/testdata/small) from
# this checkout. A change to any of them must be explained in CHANGES.md.
golden:
	$(GO) test ./internal/bench -run TestPaperGolden -update

# The recorded-history checker over HISTORY_SEEDS seeded fault schedules
# under the race detector (nightly; tier-1 runs the first 25 without it):
# acked writes survive the failover, every call is answered in bounded time,
# degraded acks are counted, the quorum comes back on its own. A failing
# seed prints the line that replays it.
HISTORY_SEEDS ?= 500
histories:
	$(GO) test -race -run TestReplicationHistories -count=1 -timeout 30m ./internal/cluster -history-seeds $(HISTORY_SEEDS)

# Lines of Go, non-test and test, in the root module (benchmark/ excluded)
# and in benchmark/, its own module. CI prints it in the GOMAXPROCS=2 test
# job so the trajectory shows in the logs.
ROOT_GO = find . \( -path ./benchmark -o -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go'
BENCH_GO = find benchmark -name '*.go'
loc:
	@printf '%-10s %9s %6s\n' module non-test test
	@printf '%-10s %9d %6d\n' root \
		"$$($(ROOT_GO) ! -name '*_test.go' -print | xargs cat | wc -l)" \
		"$$($(ROOT_GO) -name '*_test.go' -print | xargs cat | wc -l)"
	@printf '%-10s %9d %6d\n' benchmark \
		"$$($(BENCH_GO) ! -name '*_test.go' -print | xargs cat | wc -l)" \
		"$$($(BENCH_GO) -name '*_test.go' -print | xargs cat | wc -l)"

clean:
	$(GO) clean ./...
	rm -f itag.wal
