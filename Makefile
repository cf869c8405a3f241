# CI / developer entry points. `make check` is the tier-1 gate;
# `make race` is the short-budget race smoke over the concurrency
# surface (parallel experiment runner, per-machine independence audit,
# codec and sampler tests).

GO ?= go

.PHONY: check fmt vet build docs test benchmod race fuzz bench benchdry figures clean

check: fmt vet build docs test benchmod

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Includes the deterministic 10-scenario conformance smoke sweep
# (TestScenarioSmokeSweep in internal/bench).
test:
	$(GO) test ./...

# The benchmark command is a module of its own (benchmark/go.mod), so
# the root `go test ./...` does not reach it, yet it compiles against
# the simulator's internal APIs.
benchmod:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Documentation floor: every package must carry a package doc comment,
# every exported type/function/method under internal/ its own doc
# comment, and every relative link or anchor in the markdown docs must
# resolve (see cmd/doclint). Fails check when either floor is broken.
docs:
	$(GO) run ./cmd/doclint ./internal ./cmd ./examples
	$(GO) run ./cmd/doclint -md README.md DESIGN.md EXPERIMENTS.md docs

# Race smoke: the parallel-runner determinism regression, the
# per-machine shared-state audit, the VPN-sharded machine's
# seq≡parallel byte-identity (its private-state-per-worker claim is
# exactly what -race checks), the tenant-sharded run's byte-identity
# (whole tenants routed across shards, DESIGN.md §13), the codec/dist
# suites, and the multi-tenant scheduler (whole package: the scheduler
# runs inline on the caller's goroutine, with no goroutine of its own,
# which -race checks), all with CI-sized budgets.
race:
	$(GO) test -race -run 'TestRunMatrixDeterminism|TestRunnerCancellation|TestRunnerProgress|TestEventTraceGolden|TestMachinesAreIndependent|TestDistinctPoliciesShareNothing|TestScenarioMatrixDeterminism|TestTenantTraceDeterminism|TestShardedSeqParallelIdentical|TestShardedOneShardMatchesMachine|TestShardedTenantsSeqParallelIdentical' ./internal/bench ./internal/sim
	$(GO) test -race -run 'TestSharedRunnerParallelDeterminism' ./internal/scenario
	$(GO) test -race ./internal/trace ./internal/dist ./internal/obs ./internal/tenant

# Replayed continuously by `go test`; this explores beyond the seed
# corpus for a bounded time per target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzReaderNext -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzDecoder -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -fuzz=FuzzEventRoundTrip -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -fuzz='^FuzzFaultSpec$$' -fuzztime=$(FUZZTIME) ./internal/tier
	$(GO) test -fuzz='^FuzzTopologySpec$$' -fuzztime=$(FUZZTIME) ./internal/tier
	$(GO) test -fuzz='^FuzzScenarioSpec$$' -fuzztime=$(FUZZTIME) ./internal/scenario
	$(GO) test -fuzz='^FuzzScenarioConformance$$' -fuzztime=$(FUZZTIME) ./internal/scenario

# Continuous benchmarking: run the hot-loop benchmark suite, write a
# schema-stable BENCH_<n>.json snapshot, and compare against the
# previous one (see cmd/benchreport -h for the gate flags). BENCHTIME
# trades precision for wall time; CI uses 1x as an execution smoke.
BENCHTIME ?= 300ms
BENCHCOUNT ?= 3
bench:
	$(GO) run ./cmd/benchreport -benchtime $(BENCHTIME) -count $(BENCHCOUNT)

# Dry variant: measure and compare, write nothing.
benchdry:
	$(GO) run ./cmd/benchreport -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -dry

figures:
	$(GO) run ./cmd/paperfigs -accesses 4000000 -out results

clean:
	rm -rf results
