# CI / developer entry points. `make check` is the tier-1 gate, and
# its `make inline` pins the hot path's inlining; `make race` is the
# short-budget race smoke over the concurrency
# surface (parallel experiment runner, per-machine independence audit,
# codec and sampler tests); `make digests` pins the simulated bytes of
# the benchmark's four workloads at two seeds; `make figpins` pins
# every byte paperfigs writes at a reduced budget; `make repin`
# rewrites every byte pin and lists what moved.

GO ?= go

.PHONY: check fmt vet build docs inline test benchmod digests figpins repin race fuzz bench benchdry figures clean

check: fmt vet build docs inline test benchmod

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Hot-path inlining pin (DESIGN.md §7). Each site is `file|call|callee`:
# call is source text found on exactly one line of file, and
# `go build -gcflags=-m` must report inlining callee at that line.
# The sites are TouchFast in both access loops (Machine.Access and
# accessRun), fastStop and the fault plan's QuietUntil at accessRun's
# two boundary checks, and SplitMix64 in the tenant stream and the
# fault plan's failure stream. A lost site fails the target by name.
INLINE_SITES = \
	'internal/sim/sim.go|:= m.cur.TouchFast(vpn, write)|vm.(*AddressSpace).TouchFast' \
	'internal/sim/sim.go|:= cur.TouchFast(vpn, write)|vm.(*AddressSpace).TouchFast' \
	'internal/sim/sim.go|stop := m.fastStop()|(*Machine).fastStop' \
	'internal/sim/sim.go|stop := m.fastStop()|tier.(*FaultPlan).QuietUntil' \
	'internal/sim/sim.go|stop = m.fastStop();|(*Machine).fastStop' \
	'internal/sim/sim.go|stop = m.fastStop();|tier.(*FaultPlan).QuietUntil' \
	'internal/bench/tenantsweep.go|x := dist.SplitMix64(s.base + c)|dist.SplitMix64' \
	'internal/tier/fault.go|return dist.SplitMix64(uint64(f.cfg.Seed)^f.seq)|dist.SplitMix64'

inline:
	@out=$$($(GO) build -gcflags=-m ./internal/sim ./internal/bench ./internal/tier 2>&1) || { echo "$$out"; exit 1; }; \
	fail=0; \
	for site in $(INLINE_SITES); do \
		file=$${site%%|*}; rest=$${site#*|}; call=$${rest%|*}; callee=$${rest##*|}; \
		line=$$(grep -nF -- "$$call" $$file | cut -d: -f1); \
		case $$line in \
		''|*[!0-9]*) echo "inline: $$file: want one line with \"$$call\", found: $$(echo $$line)"; fail=1; continue;; \
		esac; \
		if printf '%s\n' "$$out" | awk -v p="$$file:$$line:" -v c=": inlining call to $$callee" \
			'index($$0, p) == 1 && substr($$0, length($$0) - length(c) + 1) == c { f = 1 } END { exit !f }'; then \
			echo "inline $$file:$$line $$callee ok"; \
		else echo "inline: $$file:$$line no longer inlines $$callee"; fail=1; fi; \
	done; \
	exit $$fail

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

# Byte pins live side by side in internal/bench/testdata: the golden
# cells' manifest (pins.txt, read by the golden suites in
# internal/bench), the benchmark's sim_digests and the paperfigs
# manifest. When PINS_REWRITE is set, each pin's check (those suites,
# `make digests`, `make figpins`) writes its file from the working tree
# instead of comparing; `make repin` does that for every pin.
DIGESTS = internal/bench/testdata/digests.txt
FIGPINS = internal/bench/testdata/figpins.sha256

# Simulated-bytes pin: each `workload seed digest` line of DIGESTS
# runs that benchmark workload once at that seed, which must print
# that sim_digest (each run takes seconds; all eight about half a
# minute).
digests:
	@fail=0; new=$$(mktemp) && trap 'rm -f "$$new"' EXIT && \
	while read -r w seed want; do \
		got=$$(bash benchmark/run.sh --workload $$w --seed $$seed --seconds 0 < /dev/null | awk '$$1 == "sim_digest" { print $$2 }'); \
		if [ -z "$$got" ]; then echo "sim_digest $$w $$seed: the run printed none"; exit 1; fi; \
		echo "$$w $$seed $$got" >> "$$new"; \
		if [ "$$got" = "$$want" ]; then echo "sim_digest $$w $$seed $$got ok"; \
		elif [ -n "$(PINS_REWRITE)" ]; then echo "sim_digest $$w $$seed $$got, was $$want"; \
		else echo "sim_digest $$w $$seed: got $$got, want $$want"; fail=1; fi; \
	done < $(DIGESTS); \
	if [ -n "$(PINS_REWRITE)" ]; then cp "$$new" $(DIGESTS); fi; \
	exit $$fail

# Pipeline pin: every paperfigs job at 200k accesses per run, once at
# one worker and once at two, must write exactly the files and bytes
# FIGPINS lists (about 10-20 s each on two cores). A rewrite writes
# FIGPINS from the one-worker run and still checks the two-worker run
# against it, so a parallel nondeterminism is never pinned.
figpins:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/paperfigs ./cmd/paperfigs && \
	for p in 1 2; do \
		d=$$tmp/out$$p; \
		$$tmp/paperfigs -accesses 200000 -quiet -parallel $$p -out $$d > /dev/null || exit 1; \
		if [ $$p = 1 ] && [ -n "$(PINS_REWRITE)" ]; then \
			(cd $$d && LC_ALL=C sha256sum $$(LC_ALL=C ls)) > $(FIGPINS) || exit 1; \
		fi; \
		if [ $$(ls $$d | wc -l) -ne $$(wc -l < $(FIGPINS)) ]; then \
			echo "figpins -parallel $$p: files written differ from $(FIGPINS)"; exit 1; \
		fi; \
		(cd $$d && sha256sum --quiet -c $(CURDIR)/$(FIGPINS)) || \
			{ echo "figpins -parallel $$p: bytes moved"; exit 1; }; \
		echo "figpins -parallel $$p ok"; \
	done

# Rewrites every byte pin from the working tree (the golden cells, the
# sim_digests, the figpins and results/; about three minutes on two
# cores), then lists each entry that moved: cells by name, digests by
# workload and seed, figpins and results/ by file. A change that moves
# simulated bytes runs this and says why they moved.
repin:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	snap() { \
		awk '{ print "cell " $$1 "\t" $$0 }' internal/bench/testdata/pins.txt; \
		awk '{ print "digest " $$1 " " $$2 "\t" $$3 }' $(DIGESTS); \
		awk '{ print "figpin " $$2 "\t" $$1 }' $(FIGPINS); \
		(cd results && sha256sum *) | awk '{ print "results " $$2 "\t" $$1 }'; \
	} && \
	snap > $$tmp/before && \
	PINS_REWRITE=1 $(GO) test -count=1 ./internal/bench \
		-run '^(TestDriveEquivalence|TestPageStoreEquivalence|TestTenantSchedulerEquivalence|TestSingleTenantGolden)$$' && \
	$(MAKE) --no-print-directory digests PINS_REWRITE=1 && \
	$(MAKE) --no-print-directory figpins PINS_REWRITE=1 && \
	$(MAKE) --no-print-directory figures > /dev/null && \
	snap > $$tmp/after && \
	awk -F '\t' 'FNR == NR { was[$$1] = $$2; next } { now[$$1] = 1; if (!($$1 in was)) print "added", $$1; else if (was[$$1] != $$2) print "moved", $$1 } END { for (k in was) if (!(k in now)) print "gone", k }' \
		$$tmp/before $$tmp/after | LC_ALL=C sort > $$tmp/moved && \
	if [ -s $$tmp/moved ]; then cat $$tmp/moved; cut -d' ' -f1,2 $$tmp/moved | uniq -c; else echo "nothing moved"; fi

# Race smoke: the parallel-runner determinism regressions (matrix and
# every figure that simulates), a fan-out's capture cache (Fig 5 on four
# workers draws each stream once), the per-machine shared-state audit,
# steady-phase run-ahead (the Steady/Sweep differential and a silo
# cell and a tenant mix drawn ahead and inline), the codec suites, the
# shared Zipf tables (the differential sampler tests are
# single-goroutine and stay in tier-1), and the multi-tenant scheduler
# (whole package: the scheduler runs inline on the caller's goroutine,
# with no goroutine of its own, which -race checks), all with
# CI-sized budgets.
race:
	$(GO) test -race -run 'TestRunMatrixDeterminism|TestRunnerCancellation|TestRunnerProgress|TestEventTraceGolden|TestMachinesAreIndependent|TestDistinctPoliciesShareNothing|TestScenarioMatrixDeterminism|TestTenantTraceDeterminism|TestFiguresParallelMatchSequential|TestFig5CapturesEachStreamOnce|TestSteadyRunAheadInvisible' ./internal/bench ./internal/sim
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
