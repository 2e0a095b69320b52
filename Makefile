GO ?= go

.PHONY: all build vet fmt test race race-par race-elastic fuzz crash flakes tier1 bench bench-smoke bench-traffic bench-trend perfbench-smoke bench-ab check-deprecated clean

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file must be gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The parallel executors, the observability layer, the checkpoint store,
# the fault-injected transport/driver, the engine's compiled-program
# cache, the shard partitioner, the serving layer's session pool /
# round scheduler and the pager's buffer pool are the concurrency hot
# spots; the root package holds the crash-recovery matrix. Keep them
# race-clean.
race:
	$(GO) test -race . ./internal/core ./internal/engine ./internal/vec ./internal/obs ./internal/ckpt ./internal/wire ./internal/driver ./internal/shard ./internal/serve ./internal/pager

# Engine shutdown racing in-flight statements and the background WAL
# checkpointer under varying GOMAXPROCS: the single-CPU schedule hides
# ordering bugs that only surface when goroutines truly interleave.
race-par:
	$(GO) test -race -cpu 1,2,4 -run 'TestEngineClose|TestBackgroundCheckpointer' ./internal/engine

# Elastic shards under varying GOMAXPROCS: the fault matrix (shard kills
# at round boundaries and mid-exchange with standby failover), the
# rebalance-during-iteration differential suite and the router/group
# membership race.
race-elastic:
	$(GO) test -race -cpu 1,2,4 -run 'TestElastic|TestRouterElasticRace' -count=1 .
	$(GO) test -race -cpu 1,2,4 -run 'TestShardedRebalance|TestShardedRepartition|TestShardedMalformedGroupSnapshot|TestElasticGroupValidation' -count=1 ./internal/core

# The snapshot codec must reject arbitrary corruption without panicking,
# the shard router must stay bit-compatible with the engine's PARTHASH
# for every key and shard count, and the WAL record codec must decode
# arbitrary bytes without panicking and re-encode canonically.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzSnapshotRoundTrip -fuzztime=10s ./internal/ckpt
	$(GO) test -run=NONE -fuzz=FuzzShardRouteRoundTrip -fuzztime=10s ./internal/shard
	$(GO) test -run=NONE -fuzz=FuzzWALRecordRoundTrip -fuzztime=10s ./internal/pager

# The crash matrix: cut the write-ahead log at every byte offset and
# require recovery to surface exactly the committed prefix, with and
# without a checkpointed page file underneath.
crash:
	$(GO) test -run 'TestCrash' -count=1 ./internal/pager

# The schedule-sensitive tests, repeated: the Async delta-termination
# run, the Async/AsyncP checkpoint resumes, the iteration-bounded AsyncP
# checkpointing run on two shards and the 2-shard Async checkpoint
# resume under GOMAXPROCS 1, 2 and 4, and the crash-recovery matrix.
# Prints pass/fail/skip counts per test (subtests included) and fails on
# any failure. Not in tier1: the repeats take minutes.
flakes:
	@log=$$(mktemp); status=0; \
	$(GO) test -v -count=30 -cpu 1,2,4 -run 'TestDeltaTerminationParallel$$|TestCheckpointResumeAsync' ./internal/core >> $$log 2>&1 || status=1; \
	$(GO) test -v -count=30 -cpu 1,2,4 -run 'TestShardedAsyncPIterationsCheckpoint$$|TestShardedCheckpointResume$$/^async$$/^2shards$$' ./internal/core >> $$log 2>&1 || status=1; \
	$(GO) test -v -count=20 -run 'TestCrashRecoveryMatrix$$' . >> $$log 2>&1 || status=1; \
	awk '$$1 == "---" { n[$$3]++; if ($$2 == "FAIL:") f[$$3]++; if ($$2 == "SKIP:") s[$$3]++ } \
		END { for (k in n) printf "%-48s pass %3d  fail %3d  skip %3d\n", k, n[k] - f[k] - s[k], f[k], s[k] }' $$log | sort; \
	if [ $$status -ne 0 ]; then grep -E '^\s*(--- FAIL|FAIL|panic:)|_test\.go:[0-9]+:' $$log | head -n 40; fi; \
	rm -f $$log; exit $$status

# The deleted pre-option-API shims, legacy per-DSN setters, the AsyncP
# straggler handoff (its event and option field) and the intra-query
# worker option must stay deleted everywhere, tests included. Doc files
# and extracted bench-ab base revisions are exempt.
check-deprecated: vet
	@! grep -rn --include='*.go' --exclude-dir=.bench_build -E 'OpenEmbeddedWithCost|ServeWithCost|SetDSNMetrics|SetDSNRetry|SetDSNWireVersion|ShardHandoff|Handoff:|WithWorkers' . \
		|| { echo 'deleted deprecated symbol referenced'; exit 1; }

# Tier-1 verification (ROADMAP.md): everything must stay green.
tier1: build vet fmt test race race-par race-elastic crash check-deprecated

bench:
	$(GO) test -bench=. -benchmem ./...

# Quick allocation check of the hot row path: the compiled-expression,
# vectorized-batch and wire-codec micro-benchmarks at a fixed, small
# iteration count.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime=100x -benchmem ./internal/engine ./internal/vec ./internal/wire

# End-to-end correctness in one command: a short traced run of every
# perfbench workload, failing unless the run's closing JSON line reports
# correct answers and no failed query.
PERFBENCH_WORKLOADS = pagerank-heap dq-wire-shards sssp-disk-ckpt

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$w"; \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 5 --trace 1 | tail -n 1); \
		case "$$last" in \
		*'"correct":true'*) ;; \
		*) echo "perfbench-smoke: $$w: answers not correct: $$(echo "$$last" | cut -c1-120)"; exit 1;; \
		esac; \
		case "$$last" in \
		*'"failed":0,'*) ;; \
		*) echo "perfbench-smoke: $$w: failed queries: $$(echo "$$last" | cut -c1-120)"; exit 1;; \
		esac; \
	done

# A/B end-to-end comparison of the working tree with a base revision on
# the perfbench workloads BENCH_AB_WORKLOAD names (one, a comma list, or
# all of BENCHMARK.json's): per workload BENCH_AB_PAIRS pairs of runs,
# alternating which side runs first, over the seed range BENCH_AB_SEEDS,
# then a table of each end-to-end metric's median and quartiles and its
# change against its BENCHMARK.json bound. The base is extracted into
# .bench_build/.
BENCH_AB_BASE ?= HEAD
BENCH_AB_WORKLOAD ?= all
BENCH_AB_PAIRS ?= 10
BENCH_AB_SEEDS ?= 1-5
BENCH_AB_SECONDS ?= 30

bench-ab:
	$(GO) run ./cmd/benchab -base $(BENCH_AB_BASE) -workload $(BENCH_AB_WORKLOAD) \
		-pairs $(BENCH_AB_PAIRS) -seeds $(BENCH_AB_SEEDS) -seconds $(BENCH_AB_SECONDS)

# Smoke-scale run of the PR6 serving-traffic experiment (open-loop
# mixed load against the pooled server); the full run writes
# BENCH_PR6.json via `go run ./cmd/sqloopbench -fig traffic`.
bench-traffic:
	$(GO) run ./cmd/sqloopbench -fig traffic -quick -out /tmp/sqloop_traffic_smoke.json

# One-table view of every committed BENCH_PR*.json perf artifact.
bench-trend:
	$(GO) run ./cmd/sqloopbench -fig trend

clean:
	$(GO) clean ./...
