GO ?= go

.PHONY: all build vet vuln test race check telemetry-check fault-check fuzz-check stream-check kernel-check shard-check obs-check serve-check env-check load-check bench bench-all experiments clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vuln is best-effort: govulncheck is not baked into the toolchain image and
# the gate must stay green offline, so a missing binary (or a network
# failure reaching the vuln DB) degrades to a notice instead of breaking
# check. Run it for real where the tool and network exist.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck failed (offline?); continuing — best-effort gate"; \
	else \
		echo "govulncheck not installed; skipping (best-effort gate)"; \
	fi

test:
	$(GO) test ./...

# The race detector is the gate for the parallel engine: the per-interval
# worker pool, the Fleet's concurrent runs, and the sched decision cache
# must all survive it.
race:
	$(GO) test -race ./...

# telemetry-check gates the instrumentation layer: the telemetry package and
# every instrumented call site run under the race detector (16-writer counter
# and histogram hammers live there), plus a full vet pass. The AllocsPerRun
# tests in internal/sched and internal/telemetry pin the disabled path at
# zero overhead.
telemetry-check:
	$(GO) vet ./...
	$(GO) test -race ./internal/telemetry ./internal/sched ./internal/lookup \
		./internal/core ./internal/report ./cmd/h2psim ./cmd/h2pbench

# fault-check gates the fault-injection layer under the race detector: the
# injector itself, every engine/prototype call site, the property suites that
# pin the degradation physics, and the CLI golden run.
fault-check:
	$(GO) test -race ./internal/fault ./internal/core ./internal/teg \
		./internal/thermalnet ./internal/hydro ./internal/proto ./cmd/h2psim

# fuzz-check smoke-runs every fuzz target briefly: long enough to catch a
# parser regression on the seed corpus and its near mutations, short enough
# for CI. Deep campaigns run the same targets with a larger -fuzztime.
FUZZTIME ?= 5s
fuzz-check:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadLongFormat$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCSVRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCSVSource$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shard -run '^$$' -fuzz '^FuzzShardEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzParseRunRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/env -run '^$$' -fuzz '^FuzzEnvProfile$$' -fuzztime $(FUZZTIME)

# stream-check gates the streaming data path under the race detector: the
# source adapters and their equivalence suites (streaming vs in-memory
# bit-identity across classes, schemes and worker counts), checkpoint/resume
# bit-equivalence, the memory-bound pins, and the CLI halt/resume and
# convert golden flows.
stream-check:
	$(GO) test -race -run 'Stream|Source|Resume|Checkpoint|Convert|Generator' \
		./internal/trace ./internal/core ./cmd/h2psim ./cmd/h2ptrace

# kernel-check gates the batched column kernels under the race detector:
# the SoA gather/eval kernels in internal/lookup, the DecideBatch cache-probe
# and scan phases in internal/sched (including the fuzz corpus replayed as
# unit tests), and the engine-level batch-vs-serial bit-equality suites in
# internal/core (every class x scheme x worker count x fault plan).
kernel-check:
	$(GO) test -race -run 'Batch|Kernel|Segment|Gather' \
		./internal/lookup ./internal/sched ./internal/core

# shard-check gates the sharded execution layer under the race detector: the
# partition/prefetch/merge pipeline in internal/shard (sharded-vs-unsharded
# bit-identity across classes, schemes, shard counts and fault plans;
# prefetch-ordering; checkpoint layout validation), the ShardRunner and
# aggregator seams in internal/core, and the CLI -shards equivalence and
# cross-layout resume flows.
shard-check:
	$(GO) test -race -run 'Shard|Prefetch|Partition' \
		./internal/shard ./internal/core ./cmd/h2psim
	$(GO) test -race -run TestFig14ShardedMatchesDefault ./internal/experiments

# obs-check gates the run-observability layer under the race detector: the
# journal recorder/reader round-trip, the live hub + SSE endpoints, the
# Perfetto exporter's golden validity test, the tracer ring's concurrent
# Record hammer, the journal-on/off bit-identity suites, and the h2pstat and
# h2psim CLI flows (journal + halt/resume append, /healthz, graceful
# shutdown).
obs-check:
	$(GO) test -race -run 'Obs|Journal|Recorder|Perfetto|Hub|Runs|SSE|Serve|SelfStats|Tracer|Healthz|Observer|Env|Summar|Status|EventCounts|Tail' \
		./internal/obs ./internal/telemetry ./internal/core ./internal/shard \
		./cmd/h2psim ./cmd/h2pstat ./cmd/h2pbenchdiff

# env-check gates the facility-environment layer under the race detector: the
# env sources (constant/seasonal/profile determinism, the profile fuzz corpus
# replayed as unit tests), the heat-reuse sink and storage property suites
# (storage never creates energy; reuse revenue non-negative and zero outside
# the heating season), the core+shard bit-identity matrix (explicit constant ==
# nil default across classes x schemes x shard counts x fault plans), the
# checkpoint fingerprint/storage-state validation, mid-year seasonal resume,
# and the serve/CLI environment surfaces.
env-check:
	$(GO) test -race ./internal/env ./internal/heatreuse ./internal/storage
	$(GO) test -race -run 'Env|Seasonal|Storage|Reuse|Environment' \
		./internal/core ./internal/shard ./internal/serve \
		./internal/experiments ./cmd/h2psim ./cmd/h2pstat

# serve-check gates the run-server layer under the race detector: the request
# decoder and quota unit suites, the HTTP conformance tests (413/429/503
# admission ladder, cancel-mid-run with journal halt records, graceful drain),
# the API-vs-CLI bit-identity equivalence suite, and both the daemon's and the
# load harness's end-to-end lifecycles.
serve-check:
	$(GO) test -race ./internal/serve ./cmd/h2pserved ./cmd/h2pload

# load-check runs the deterministic multi-tenant load profile against a
# spawned in-process server: 8 tenants x 55 submissions each against a
# 50-token no-refill allowance must yield exactly 50 accepted and 5 rejected
# per tenant, with every accepted run's result hash verified against a locally
# computed reference (zero mismatches, zero dropped runs) — the quota
# arithmetic is timing-independent by construction, so the assertion is exact.
load-check:
	$(GO) run ./cmd/h2pload -spawn -tenants 8 -runs 55 \
		-servers 60 -intervals 24 -submit-burst 50 \
		-expect-accepted 50 -expect-rejected 5

# check is the tier-1 gate: vet + best-effort vuln scan + build +
# race-enabled tests + the fuzz smoke run. `race` already runs every test
# once under the race detector, so the layer gates above (telemetry-,
# fault-, stream-, kernel-, shard-, obs-, serve- and env-check) are not
# prerequisites: they re-run subsets of the same tests and stay as
# developer shortcuts for working on one layer.
check: vet vuln build race fuzz-check

# bench tracks the decision hot path across PRs: the Decision* benchmarks in
# internal/lookup (candidate scan) and internal/sched (controller) run with
# -benchmem and land in BENCH_decision.json as a test2json stream, and the
# end-to-end IntervalThroughput* benchmarks in internal/core (10k-server
# columns through Engine.RunSourceContext, batch vs. pinned-serial) land in
# BENCH_interval.json, followed by DecideBatchExactChurn in internal/sched
# (a 10k-server exact-quantum column against a full decision cache — the
# default configuration's steady state; TestDecideBatchExactChurnAllocationFree
# pins it at 0 allocs). Render or compare snapshots with `go run
# ./cmd/h2pbenchdiff BENCH_decision.json [other.json]`; add `-threshold 10`
# to fail on >10% ns/op regressions.
# The ShardScaling benchmark runs the full month-scale trace once per rung of
# the shard ladder (-benchtime 1x), landing the multicore scaling curve in
# BENCH_shard.json; h2pbenchdiff renders every unit including the servers/s
# throughput column, and `h2pbenchdiff -threshold 10 old.json BENCH_shard.json`
# gates throughput drops as well as ns/op growth.
# The trace-decode benchmarks in internal/trace (CSVSourceOpen,
# CSVSourceDecode, LongFormatSourceDecode, GeneratorSourceDecode; each
# reports ns/cell on a 1,000-server fixture generated at run time) land in
# BENCH_trace.json.
# Each artifact opens with the h2p_bench_env header line (`h2pbench
# -bench-env`): go version, GOMAXPROCS, CPU model, commit. h2pbenchdiff
# reads it back and warns when two compared artifacts come from different
# environments, so hardware deltas are not mistaken for regressions.
bench:
	$(GO) run ./cmd/h2pbench -bench-env > BENCH_decision.json
	$(GO) test -run '^$$' -bench Decision -benchmem -count=1 -json \
		./internal/lookup ./internal/sched >> BENCH_decision.json
	$(GO) run ./cmd/h2pbench -bench-env > BENCH_interval.json
	$(GO) test -run '^$$' -bench IntervalThroughput -benchmem -count=1 -json \
		./internal/core >> BENCH_interval.json
	$(GO) test -run '^$$' -bench DecideBatchExactChurn -benchmem -count=1 -json \
		./internal/sched >> BENCH_interval.json
	$(GO) run ./cmd/h2pbench -bench-env > BENCH_shard.json
	$(GO) test -run '^$$' -bench ShardScaling -benchmem -benchtime 1x -count=1 -json \
		./internal/shard >> BENCH_shard.json
	$(GO) run ./cmd/h2pbench -bench-env > BENCH_trace.json
	$(GO) test -run '^$$' -bench 'Source(Open|Decode)$$' -benchmem -count=1 -json \
		./internal/trace >> BENCH_trace.json
	$(GO) run ./cmd/h2pbenchdiff BENCH_decision.json
	$(GO) run ./cmd/h2pbenchdiff BENCH_interval.json
	$(GO) run ./cmd/h2pbenchdiff BENCH_shard.json
	$(GO) run ./cmd/h2pbenchdiff BENCH_trace.json

bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...

experiments:
	$(GO) run ./cmd/h2pbench -exp all -csv results

clean:
	$(GO) clean ./...
	rm -rf results BENCH_decision.json BENCH_interval.json BENCH_shard.json BENCH_trace.json
