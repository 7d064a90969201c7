# Tier-1 gate for this repo (see ROADMAP.md). `make ci` is what must stay
# green; the other targets are its pieces plus developer conveniences.

GO ?= go
FUZZTIME ?= 5s

.PHONY: ci build vet test race fuzz bench bench-check golden-update clean experiments-smoke accounting-check chaos-check warmup-check repro-check spec-check perfbench-check cover

ci: vet build race fuzz experiments-smoke accounting-check chaos-check warmup-check repro-check spec-check perfbench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each fuzz target needs its own invocation (go test allows one -fuzz
# pattern matching a single target per package).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzHistogram -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzEventJSONL -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzIntervalJSONL -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzSpanJSONL -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzBatchedDecode -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzJournal -fuzztime=$(FUZZTIME) ./internal/runner
	$(GO) test -run=^$$ -fuzz=FuzzCheckpoint -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzScorecardJSON -fuzztime=$(FUZZTIME) ./internal/repro
	$(GO) test -run=^$$ -fuzz=FuzzWorkloadSpec -fuzztime=$(FUZZTIME) ./internal/wspec
	$(GO) test -run=^$$ -fuzz=FuzzHistoryFolds -fuzztime=$(FUZZTIME) ./internal/bpred

# Benchmark knobs: BENCHTIME bounds the go-test benchmarks (1x keeps the
# 17-benchmark sweep fast; raise for stable numbers), BENCHREPS is the
# repetition count of the benchkit kernel suite, and BENCHTOL the
# fractional regression tolerance of bench-check (generous by default so
# it gates on structural regressions — allocation leaks, >2x slowdowns
# — rather than machine-to-machine timing noise; loaded shared runners
# routinely measure 50-80% above a quiet machine's timings. Allocation
# metrics have (near-)zero baselines, so they stay effectively exact at
# any timing tolerance).
BENCHTIME ?= 1x
BENCHREPS ?= 5
BENCHTOL ?= 1.0

# The full benchmark set: every go-test benchmark (experiments, whole-sim
# throughput, steady-state cycle loop), then the benchkit kernel suite
# with its per-golden-config metrics.
bench:
	$(GO) test -bench . -benchtime $(BENCHTIME) -run=^$$ .
	$(GO) run ./cmd/bench -reps $(BENCHREPS)

# Regression gate: re-measure the kernel suite and fail if any metric is
# worse than the committed BENCH_kernel.json beyond BENCHTOL. Allocation
# metrics with a zero baseline are effectively exact (the tolerance acts
# as an absolute allowance); see docs/PERFORMANCE.md.
bench-check:
	$(GO) run ./cmd/bench -check BENCH_kernel.json -tol $(BENCHTOL) -reps $(BENCHREPS)

# End-to-end smoke of the run-execution subsystem: the same quick
# experiment twice against one throwaway cache directory. The second run
# must be satisfied from the cache (nonzero runner cache_hits), proving
# the spec hash, disk store, and scheduler wiring end to end.
experiments-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/experiments -quick -run tab2 -cache "$$dir/cache" > "$$dir/first.out" && \
	grep '^runner:' "$$dir/first.out" && \
	$(GO) run ./cmd/experiments -quick -run tab2 -cache "$$dir/cache" > "$$dir/second.out" && \
	grep '^runner:' "$$dir/second.out" && \
	grep -q 'cache_hits=[1-9]' "$$dir/second.out" || \
	{ echo "experiments-smoke: second run had no cache hits" >&2; exit 1; }

# Cycle-accounting conservation smoke: simulate a golden workload with
# manifests on stdout and pipe them through acctcheck, which asserts the
# top-down accounting buckets sum exactly to run.cycles. The unit tests
# (TestAccountingConservation) cover all golden cases; this proves the
# same invariant end to end through the CLI plumbing.
accounting-check:
	$(GO) run ./cmd/fdpsim -workload server_a,client_a -warmup 50000 -measure 150000 -metrics - | $(GO) run ./cmd/acctcheck

# Seeded fault-injection gate, in two phases: inject a panic, a hang and
# a corrupt cache entry into one keep-going campaign, then kill -9 a
# campaign mid-run, and assert the runner survives each the advertised
# way (retry, watchdog, quarantine, journal resume). See
# docs/ROBUSTNESS.md and cmd/chaos.
chaos-check:
	$(GO) run ./cmd/chaos

# Reproduction gate: run the quick-scale scoring campaign through the
# runner's result cache and evaluate every contract in the
# internal/repro registry (the same thresholds TestHeadlineShapes
# asserts — see docs/CALIBRATION.md). Exits nonzero on any
# hard-severity expectation miss, so CI fails the moment a change bends
# a paper claim out of shape.
repro-check:
	$(GO) run ./cmd/reprocheck -scale quick

# Benchmark-module gate: perfbench/ is its own Go module (it imports this
# one through a replace directive), so the root vet and test never
# compile it. Building and testing it here keeps an API change in this
# module from silently breaking the benchmark harness.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Workload-spec gate: parse, validate and compile every example spec, so
# a schema or compiler change that orphans the shipped scenarios (or a
# broken example) fails CI. See docs/WORKLOADS.md.
spec-check:
	$(GO) run ./cmd/wlstat -check examples/workloads

# Coverage gate: per-package `go test -short -cover` (the per-package
# lines are the useful CI log), then the aggregate statement coverage
# checked against COVERFLOOR. The aggregate measured 71.4% when
# distributed execution was added (2026-08) and 73.0% after it was
# removed again (2026-10); the floor sits below so it trips on real
# coverage regressions, not refactoring noise.
COVERFLOOR ?= 69.5
COVERPROFILE ?= cover.out

cover:
	$(GO) test -short -cover -coverprofile=$(COVERPROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ { gsub(/%/,"",$$3); print $$3 }'); \
	awk -v t="$$total" -v floor="$(COVERFLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "cover: total %s%% is below the floor %s%%\n", t, floor; exit 1 } \
		printf "cover: total %s%% >= floor %s%%\n", t, floor }'

# Fast-forward warmup gate: for every golden (config, workload) pair,
# a cold fast-forward run and a checkpoint-restored run must produce
# byte-identical manifests over the measured region, and a warmup-heavy
# 8-config sweep must run >= 2x faster with checkpoints on (the measured
# speedup is logged). See cmd/warmupcheck and docs/ARCHITECTURE.md.
warmup-check:
	$(GO) run ./cmd/warmupcheck

# Regenerate the golden-run manifests after an intentional simulator
# change; review the diff before committing. Cached runner results are
# keyed by runner.Epoch (internal/runner/spec.go): whenever a golden
# manifest legitimately changes, bump Epoch in the same commit so stale
# on-disk caches (-cache/-resume) cannot replay pre-change results.
golden-update:
	$(GO) test -run TestGoldenManifests -update .

clean:
	$(GO) clean ./...
