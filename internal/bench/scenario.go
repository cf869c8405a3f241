// Scenario entry points: run declarative internal/scenario specs
// through the same machines, cell seeding and parallel fan-out as the
// Table 2 workloads, plus the seed-driven pathology hunt the CI fuzz
// jobs call (generate -> run under the conformance probe -> shrink any
// failure to a minimal reproducer file).
package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"memtis/internal/dist"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tier"
)

// ScenarioMachine builds the machine configuration for a compiled
// scenario at a tiering ratio, sized like MachineFor: the fast tier is
// the constrained resource at r.FastFrac of the scenario's peak
// resident estimate, the capacity tier holds everything with headroom.
// A fault plan declared by the scenario spec overrides the harness
// config's schedule. (Scenarios carry no Table 3 over-allocation data,
// so HeMem runs without MachineFor's fast-tier reduction.)
func ScenarioMachine(sc *scenario.Runner, r Ratio, cfg Config) sim.Config {
	rss := sc.RSSBytes()
	return machine(scenarioConfig(sc, cfg), fastTier(rss, r), capTier(rss))
}

// scenarioConfig is cfg for a scenario's machine: the scenario's own
// fault plan overrides the harness config's schedule, and every phase,
// a Table 2 model's among them, draws from the cell seed.
func scenarioConfig(sc *scenario.Runner, cfg Config) Config {
	if fc := sc.FaultConfig(); fc.Enabled() {
		cfg.Faults = fc
	}
	cfg.streamSeed = 0
	return cfg
}

// RunScenario executes one (scenario, policy, ratio) cell.
func RunScenario(sc *scenario.Runner, polName string, r Ratio, cfg Config) sim.Result {
	mc := ScenarioMachine(sc, r, cfg)
	return sim.Run(mc, NewPolicy(polName), sc, cfg.Accesses)
}

// RunScenarioBaseline executes the scenario's all-capacity-tier
// normalisation run (the RunBaseline analogue).
func RunScenarioBaseline(sc *scenario.Runner, cfg Config) sim.Result {
	mc := baselineMachine(scenarioConfig(sc, cfg), sc.RSSBytes())
	return sim.Run(mc, NewPolicy("all-capacity"), sc, cfg.Accesses)
}

// RunScenarioMatrix executes the (scenario x ratio x policy) matrix
// plus per-scenario all-capacity baselines, exactly like RunMatrix over
// workloads: per-cell seeds via CellConfig keyed on the scenario name,
// optional per-cell event traces under cfg.EventDir, results assembled
// in plot order regardless of completion order. Compiled Runners are
// immutable, so parallel cells share them safely. Nil ratios/pols
// select the Figure 5 defaults.
func (r *Runner) RunScenarioMatrix(ctx context.Context, cfg Config, scs []*scenario.Runner, ratios []Ratio, pols []string) (*Matrix, error) {
	if ratios == nil {
		ratios = MainRatios
	}
	if pols == nil {
		pols = Policies
	}
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name()
	}
	return r.normMatrix(ctx, cfg, names, ratios, pols,
		func(i int, c Config) sim.Result { return RunScenarioBaseline(scs[i], c) },
		func(i int, rt Ratio, p string, c Config) sim.Result { return RunScenario(scs[i], p, rt, c) })
}

// HuntParams derives the (policy, ratio) a hunt iteration pairs with
// its generated scenario — a pure function of the seed, drawn from the
// full policy registry so fuzzing covers every system, not just the
// Figure 5 set.
func HuntParams(seed uint64) (string, Ratio) {
	h := dist.SplitMix64(seed ^ dist.FNV1a("hunt-params"))
	pol := AllPolicies[h%uint64(len(AllPolicies))]
	rt := MainRatios[dist.SplitMix64(h)%uint64(len(MainRatios))]
	return pol, rt
}

// HuntShape derives the seed's machine shape: the hierarchy depth (2
// keeps the classic two-tier pair; 3 and 4 insert derived intermediate
// tiers), whether benefit admission gates migrations, and whether the
// rate-limited background mover is on. Like HuntParams it is a pure
// function of the seed, so the fuzzer sweeps the deep-hierarchy and
// mover/admission surfaces with no extra inputs and a CI failure still
// reproduces from the seed alone.
//
// The fourth result is always 1. It is kept only because the benchmark
// module (benchmark/workloads.go) compiles against it.
func HuntShape(seed uint64) (depth int, admission, mover bool, shards int) {
	h := dist.SplitMix64(seed ^ dist.FNV1a("hunt-shape"))
	depth = 2 + int(h%3)
	h = dist.SplitMix64(h)
	admission = h%2 == 1
	h = dist.SplitMix64(h)
	mover = h%2 == 1
	return depth, admission, mover, 1
}

// HuntResult is one scenario-fuzz iteration's outcome.
type HuntResult struct {
	Seed   uint64
	Policy string
	Ratio  Ratio
	// Depth, Admission and Mover record the seed's machine shape (see
	// HuntShape).
	Depth     int
	Admission bool
	Mover     bool
	// Shards is always 1. It is kept only because the benchmark module
	// (benchmark/workloads.go) reads it.
	Shards int
	Spec   scenario.Spec
	Result sim.Result
	// Violations lists the conformance-contract breaches the probe saw
	// (empty for a passing iteration); each line carries the seed.
	Violations []string
	// Minimal is the shrunk reproducer (equal to Spec when shrinking
	// could not simplify it; zero when the iteration passed).
	Minimal scenario.Spec
	// ReproPath names the written reproducer file ("" when passing or
	// when no repro directory was given).
	ReproPath string
}

// Failed reports whether the iteration violated the contract.
func (h HuntResult) Failed() bool { return len(h.Violations) > 0 }

// HuntScenario runs one iteration of the scenario pathology hunt:
// generate the seed's scenario, pair it with the seed's (policy, ratio)
// and drive it under the conformance probe. On violation, the spec is
// shrunk to a minimal still-failing reproducer and, when reproDir is
// non-empty, written there as scenario-<seed>.json with the context in
// its note. accesses <= 0 selects the hunt default (100k — large enough
// to exercise migration and churn, small enough for a fuzz iteration).
// Everything is a pure function of (seed, accesses), so a failure in a
// CI log reproduces locally from the seed alone.
func HuntScenario(seed uint64, accesses uint64, reproDir string) (HuntResult, error) {
	if accesses == 0 {
		accesses = 100_000
	}
	out, cfg, err := huntSetup(seed, accesses)
	if err != nil {
		return out, err
	}
	pol, rt, depth := out.Policy, out.Ratio, out.Depth
	run := func(spec scenario.Spec) ([]string, sim.Result, error) {
		sc, mc, err := huntMachine(spec, rt, depth, cfg)
		if err != nil {
			return nil, sim.Result{}, err
		}
		probe := scenario.NewProbe(NewPolicy(pol), seed, sc.FaultConfig())
		res := sim.Run(mc, probe, sc, cfg.Accesses)
		probe.FinalCheck()
		v := probe.Violations()
		if res.Accesses != cfg.Accesses {
			v = append(v, fmt.Sprintf("scenario seed=%#x policy=%s: ran %d accesses, want %d",
				seed, pol, res.Accesses, cfg.Accesses))
		}
		// The QoS arbiter vetoes any demotion below a warmed floor and
		// credits the tenant's own frees, so a floor violation is a
		// tenant-isolation conformance breach, not workload noise.
		for _, mt := range res.Counters {
			if strings.HasSuffix(mt.Name, "/floor_violations") && mt.Value > 0 {
				v = append(v, fmt.Sprintf("scenario seed=%#x policy=%s: %s = %d (fast-tier floor not isolated)",
					seed, pol, mt.Name, mt.Value))
			}
		}
		return v, res, nil
	}
	out.Violations, out.Result, err = run(out.Spec)
	if err != nil {
		// Generate promises compilable specs; surface the bug, don't hunt on.
		return out, fmt.Errorf("bench: hunt seed %#x: %w", seed, err)
	}
	if !out.Failed() {
		return out, nil
	}
	out.Minimal = scenario.Shrink(out.Spec, func(cand scenario.Spec) bool {
		v, _, err := run(cand)
		return err == nil && len(v) > 0
	})
	out.Minimal.Note = fmt.Sprintf("seed=%#x policy=%s ratio=%s depth=%d admission=%t mover=%t accesses=%d: %s",
		seed, pol, rt.Name, depth, out.Admission, out.Mover, accesses, out.Violations[0])
	if reproDir != "" {
		if err := os.MkdirAll(reproDir, 0o755); err != nil {
			return out, fmt.Errorf("bench: hunt repro dir: %w", err)
		}
		data, err := out.Minimal.Encode()
		if err != nil {
			return out, fmt.Errorf("bench: hunt seed %#x: %w", seed, err)
		}
		path := filepath.Join(reproDir, fmt.Sprintf("scenario-%016x.json", seed))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return out, fmt.Errorf("bench: hunt repro: %w", err)
		}
		out.ReproPath = path
	}
	return out, nil
}

// huntSetup derives everything a hunt iteration runs from its seed
// except the machine: the result's identity (policy, ratio, machine
// shape, generated spec) and the harness config with the seed's
// machine seed, admission and mover.
func huntSetup(seed, accesses uint64) (HuntResult, Config, error) {
	pol, rt := HuntParams(seed)
	depth, admit, mover, _ := HuntShape(seed)
	out := HuntResult{Seed: seed, Policy: pol, Ratio: rt,
		Depth: depth, Admission: admit, Mover: mover, Shards: 1,
		Spec: scenario.Generate(seed)}
	cfg := DefaultConfig()
	cfg.Accesses = accesses
	cfg.Seed = int64(dist.SplitMix64(seed ^ dist.FNV1a("hunt-machine")))
	if admit {
		adm, err := tier.ParseAdmission("benefit")
		if err != nil {
			return out, cfg, fmt.Errorf("bench: hunt admission: %w", err)
		}
		cfg.Admission = adm
	}
	if mover {
		mc, err := tier.ParseMoverSpec("8m/1ms")
		if err != nil {
			return out, cfg, fmt.Errorf("bench: hunt mover: %w", err)
		}
		cfg.Mover = mc
	}
	return out, cfg, nil
}

// huntMachine compiles a hunt candidate spec and sizes its machine.
// The intermediate tiers of a deeper hierarchy are derived per
// candidate: shrinking can change the RSS their sizes come from.
func huntMachine(spec scenario.Spec, rt Ratio, depth int, cfg Config) (*scenario.Runner, sim.Config, error) {
	sc, err := scenario.Compile(spec, scenario.Options{})
	if err != nil {
		return nil, sim.Config{}, err
	}
	if depth > 2 {
		if cfg.Topology, err = TopologyForDepth(sc.RSSBytes(), rt, depth, cfg.CapKind); err != nil {
			return nil, sim.Config{}, err
		}
	}
	return sc, ScenarioMachine(sc, rt, cfg), nil
}
