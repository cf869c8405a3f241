# CI / developer entry points. `make check` is the tier-1 gate;
# `make race` is the short-budget race smoke over the concurrency
# surface (parallel experiment runner, per-machine independence audit,
# codec and sampler tests); `make digests` pins the simulated bytes of
# the benchmark's four workloads; `make figpins` pins every byte
# paperfigs writes at a reduced budget.

GO ?= go

.PHONY: check fmt vet build docs test benchmod digests figpins race fuzz bench benchdry figures clean

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

# Simulated-bytes pin: every benchmark workload, run once at seed 42,
# must print the sim_digest listed here (each takes seconds; all four
# about half a minute). A change that moves simulated bytes updates
# this list in the same diff.
DIGESTS = fig5=da9d758ebe3cf190 memtis-silo=8a6c6f99c561cdd2 tenants=89e946e9946b237e hunt=410e5430a7b607ae
digests:
	@fail=0; for pin in $(DIGESTS); do \
		w=$${pin%%=*}; want=$${pin#*=}; \
		got=$$(bash benchmark/run.sh --workload $$w --seed 42 --seconds 0 | awk '$$1 == "sim_digest" { print $$2 }'); \
		if [ "$$got" = "$$want" ]; then echo "sim_digest $$w $$got ok"; \
		else echo "sim_digest $$w: got '$$got', want $$want"; fail=1; fi; \
	done; exit $$fail

# Pipeline pin: every paperfigs job at 200k accesses per run, once at
# one worker and once at two, must write exactly the files and bytes
# FIGPINS lists (about 10-20 s each on two cores). A change that moves
# simulated bytes regenerates the list in the same diff: run
# `paperfigs -accesses 200000 -quiet -out DIR`, then in DIR
# `LC_ALL=C sha256sum $(LC_ALL=C ls) > FIGPINS`.
FIGPINS = cmd/paperfigs/testdata/figpins.sha256
figpins:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/paperfigs ./cmd/paperfigs && \
	for p in 1 2; do \
		d=$$tmp/out$$p; \
		$$tmp/paperfigs -accesses 200000 -quiet -parallel $$p -out $$d > /dev/null || exit 1; \
		if [ $$(ls $$d | wc -l) -ne $$(wc -l < $(FIGPINS)) ]; then \
			echo "figpins -parallel $$p: files written differ from $(FIGPINS)"; exit 1; \
		fi; \
		(cd $$d && sha256sum --quiet -c $(CURDIR)/$(FIGPINS)) || \
			{ echo "figpins -parallel $$p: bytes moved"; exit 1; }; \
		echo "figpins -parallel $$p ok"; \
	done

# Race smoke: the parallel-runner determinism regressions (matrix and
# every figure that simulates), the per-machine shared-state audit,
# steady-phase run-ahead (the Steady/Sweep differential and a silo
# cell and a tenant mix drawn ahead and inline), the codec suites, the
# shared Zipf tables (the differential sampler tests are
# single-goroutine and stay in tier-1), and the multi-tenant scheduler
# (whole package: the scheduler runs inline on the caller's goroutine,
# with no goroutine of its own, which -race checks), all with
# CI-sized budgets.
race:
	$(GO) test -race -run 'TestRunMatrixDeterminism|TestRunnerCancellation|TestRunnerProgress|TestEventTraceGolden|TestMachinesAreIndependent|TestDistinctPoliciesShareNothing|TestScenarioMatrixDeterminism|TestTenantTraceDeterminism|TestFiguresParallelMatchSequential|TestSteadyRunAheadInvisible' ./internal/bench ./internal/sim
	$(GO) test -race -run 'TestSharedRunnerParallelDeterminism' ./internal/scenario
	$(GO) test -race -run 'TestSteady' ./internal/workload
	$(GO) test -race -run 'TestTables' ./internal/dist
	$(GO) test -race ./internal/trace ./internal/obs ./internal/tenant

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
	$(GO) test -run='^$$' -fuzz='^FuzzHuntBypass$$' -fuzztime=$(FUZZTIME) ./internal/bench

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
