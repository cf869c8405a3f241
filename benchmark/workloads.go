package main

import (
	"context"
	"fmt"
	"time"

	"memtis/internal/bench"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// Access budgets at scale 1 (see README.md for why each job is sized
// this way).
const (
	fig5Accesses   = 1_000_000
	siloAccesses   = 50_000_000
	tenantAccesses = 6_000_000
	huntAccesses   = 100_000
	huntSeeds      = 240
	huntRefSeeds   = 3
)

// A workload is one job of the benchmark: the cells it simulates,
// rebuilt outside the job's entry point so the setup and traced passes
// can time and wrap them, and the job itself, run through the same
// entry point paperfigs and the CI hunt use.
type workloadDef struct {
	name  string
	cells func(seed int64, scale float64) ([]cell, error)
	run   func(ctx context.Context, seed int64, scale float64, workers int) (*outcome, error)
}

var workloads = []workloadDef{
	{"fig5", fig5Cells, runFig5},
	{"memtis-silo", siloCells, runSilo},
	{"tenants", tenantCells, runTenants},
	{"hunt", huntCells, runHunt},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// cell is one simulated run of a job.
type cell struct {
	label  string // the cell's key in the job's results
	load   sim.Workload
	config sim.Config
	budget uint64
	// policy builds a fresh policy; wrap is applied to the tiering
	// policy itself, inside any conformance probe around it.
	policy func(wrap func(sim.Policy) sim.Policy) sim.Policy
	// ref marks a reference cell of the traced pass.
	ref bool
	// spaces is the number of address spaces (tenants) the cell runs.
	spaces int
	// stream, when non-nil, reproduces the cell's access stream on one
	// address space with no frees and no mid-stream reservations, so it
	// can be captured and replayed layer by layer.
	stream sim.Workload
}

func noWrap(p sim.Policy) sim.Policy { return p }

func named(pol string) func(func(sim.Policy) sim.Policy) sim.Policy {
	return func(wrap func(sim.Policy) sim.Policy) sim.Policy { return wrap(bench.NewPolicy(pol)) }
}

func scaled(n uint64, scale float64) uint64 {
	if v := uint64(float64(n) * scale); v > 0 {
		return v
	}
	return 1
}

func harness(seed int64, accesses uint64) bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Seed = seed
	cfg.Accesses = accesses
	return cfg
}

// matrixLabel keys a matrix cell by its coordinates.
func matrixLabel(w, ratio, pol string) string { return w + "/" + ratio + "/" + pol }

// addMatrix records every cell of a finished matrix job.
func (o *outcome) addMatrix(m *bench.Matrix, budget uint64) {
	for _, c := range m.Cells {
		o.add(matrixLabel(c.Workload, c.Ratio, c.Policy), c.Result, c.Value, budget)
		if !(c.Value > 0) {
			o.fail(matrixLabel(c.Workload, c.Ratio, c.Policy), fmt.Sprintf("normalised value %v", c.Value))
		}
	}
}

// fig5: every Table 2 model x {1:2, 1:8, 1:16} x the seven Figure 5
// systems, plus one all-capacity baseline per model.
func fig5Cells(seed int64, scale float64) ([]cell, error) {
	cfg := harness(seed, scaled(fig5Accesses, scale))
	var cells []cell
	for _, spec := range workload.Specs() {
		w, err := workload.New(spec.Name)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{
			label:  matrixLabel(spec.Name, "baseline", "all-capacity"),
			load:   w,
			config: baselineMachine(spec, bench.CellConfig(cfg, spec.Name, "baseline", "all-capacity")),
			budget: cfg.Accesses,
			policy: named("all-capacity"),
			spaces: 1,
		})
		for _, rt := range bench.MainRatios {
			for _, p := range bench.Policies {
				c := cell{
					label:  matrixLabel(spec.Name, rt.Name, p),
					load:   w,
					config: bench.MachineFor(spec, rt, p, bench.CellConfig(cfg, spec.Name, rt.Name, p)),
					budget: cfg.Accesses,
					policy: named(p),
					spaces: 1,
				}
				if rt == bench.Ratio1to8 && (spec.Name == "silo" || spec.Name == "btree") {
					c.ref, c.stream = true, w
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// baselineMachine is bench.RunBaseline's machine: a token fast tier and
// a capacity tier holding the whole resident set.
func baselineMachine(spec workload.Spec, cfg bench.Config) sim.Config {
	rss := spec.RSSBytes()
	return sim.Config{
		FastBytes: tier.HugePageSize * 2,
		CapBytes:  rss + rss/4 + 16*tier.HugePageSize,
		CapKind:   cfg.CapKind,
		THP:       true,
		Seed:      cfg.Seed,
	}
}

func runFig5(ctx context.Context, seed int64, scale float64, workers int) (*outcome, error) {
	cfg := harness(seed, scaled(fig5Accesses, scale))
	m, _, err := bench.Parallel(workers).Fig5(ctx, cfg, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.addMatrix(m, cfg.Accesses)
	// The baselines run too; their results reach the matrix only as the
	// normalisation of every value, which addMatrix checks.
	baselines := len(workload.Specs())
	o.cells += baselines
	o.accesses += uint64(baselines) * cfg.Accesses
	return o, nil
}

// memtis-silo: one long MEMTIS cell on silo at 1:8.
func siloCells(seed int64, scale float64) ([]cell, error) {
	cfg := harness(seed, scaled(siloAccesses, scale))
	w, err := workload.New("silo")
	if err != nil {
		return nil, err
	}
	return []cell{{
		label:  matrixLabel("silo", bench.Ratio1to8.Name, "memtis"),
		load:   w,
		config: bench.MachineFor(w.Spec(), bench.Ratio1to8, "memtis", cfg),
		budget: cfg.Accesses,
		policy: named("memtis"),
		ref:    true,
		spaces: 1,
		stream: w,
	}}, nil
}

func runSilo(_ context.Context, seed int64, scale float64, _ int) (*outcome, error) {
	cfg := harness(seed, scaled(siloAccesses, scale))
	o := newOutcome()
	res := bench.RunOne("silo", "memtis", bench.Ratio1to8, cfg)
	o.add(matrixLabel("silo", bench.Ratio1to8.Name, "memtis"), res, 0, cfg.Accesses)
	return o, nil
}

// tenants: the default tenant sweep at 1:8.
func tenantCells(seed int64, scale float64) ([]cell, error) {
	cfg := harness(seed, scaled(tenantAccesses, scale))
	var cells []cell
	for _, pt := range bench.DefaultTenantPoints {
		tc, rss := bench.TenantMix(pt, tenantBytes(pt.Tenants))
		tn, err := tenant.New(tc)
		if err != nil {
			return nil, err
		}
		coord := tenantCoord(bench.Ratio1to8, pt)
		for _, p := range bench.Policies {
			c := cell{
				label:  matrixLabel("tenants", coord, p),
				load:   tn,
				config: tenantMachine(rss, bench.Ratio1to8, bench.CellConfig(cfg, "tenants", coord, p)),
				budget: cfg.Accesses,
				policy: named(p),
				spaces: pt.Tenants,
			}
			refPoint := pt.Tenants == 1 || (pt.Tenants == 64 && pt.Skew == "8to1" && pt.ChurnFrac == 0.5)
			if refPoint && (p == "memtis" || p == "tpp") {
				c.ref = true
				if pt.Tenants == 1 {
					// A lone tenant runs its load unscheduled on the root
					// space, so the load alone reproduces the stream.
					c.stream = tc.Tenants[0].Workload
				}
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// tenantCoord and tenantBytes mirror the sweep's cell coordinate and
// per-tenant region size; a drift shows as a reference cell missing
// from the sweep's results.
func tenantCoord(rt bench.Ratio, p bench.TenantPoint) string {
	return fmt.Sprintf("%s+t%d+%s+c%d", rt.Name, p.Tenants, p.Skew, int(p.ChurnFrac*100+0.5))
}

func tenantBytes(n int) uint64 {
	per := uint64(64<<20) / uint64(n)
	if per < 1<<20 {
		per = 1 << 20
	}
	return per
}

// tenantMachine is bench.RunTenants' machine for a mix of combined
// footprint rss.
func tenantMachine(rss uint64, rt bench.Ratio, cfg bench.Config) sim.Config {
	fast := uint64(float64(rss) * rt.FastFrac)
	if fast < tier.HugePageSize*2 {
		fast = tier.HugePageSize * 2
	}
	return sim.Config{
		FastBytes: fast,
		CapBytes:  rss + rss/4 + 16*tier.HugePageSize,
		CapKind:   cfg.CapKind,
		THP:       true,
		Seed:      cfg.Seed,
	}
}

func runTenants(ctx context.Context, seed int64, scale float64, workers int) (*outcome, error) {
	cfg := harness(seed, scaled(tenantAccesses, scale))
	m, err := bench.Parallel(workers).TenantSweep(ctx, cfg, bench.Ratio1to8, nil, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.addMatrix(m, cfg.Accesses)
	return o, nil
}

// hunt: seeds seed..seed+239 of the scenario conformance hunt.
func huntCells(seed int64, scale float64) ([]cell, error) {
	budget := scaled(huntAccesses, scale)
	cells := make([]cell, 0, huntSeeds)
	replayRef := false
	for i := 0; i < huntSeeds; i++ {
		c, err := huntCell(uint64(seed)+uint64(i), budget)
		if err != nil {
			return nil, err
		}
		// The first seeds, plus the first seed whose stream replays, so
		// every layer is measured.
		if i < huntRefSeeds || (!replayRef && c.stream != nil) {
			c.ref = true
			replayRef = replayRef || c.stream != nil
		}
		cells = append(cells, c)
	}
	if !replayRef {
		return nil, fmt.Errorf("hunt: no seed in %d..%d has a replayable stream", seed, seed+huntSeeds-1)
	}
	return cells, nil
}

func huntLabel(seed uint64) string { return fmt.Sprintf("hunt/%d", seed) }

// huntCell rebuilds the scenario leg of bench.HuntScenario for one
// seed: the seed's scenario, policy, ratio, depth, admission and mover,
// with the policy inside a conformance probe.
func huntCell(seed uint64, budget uint64) (cell, error) {
	pol, rt := bench.HuntParams(seed)
	depth, admit, mover, _ := bench.HuntShape(seed)
	cfg := harness(int64(splitmix64(seed^fnv1a("hunt-machine"))), budget)
	var err error
	if admit {
		if cfg.Admission, err = tier.ParseAdmission("benefit"); err != nil {
			return cell{}, err
		}
	}
	if mover {
		if cfg.Mover, err = tier.ParseMoverSpec("8m/1ms"); err != nil {
			return cell{}, err
		}
	}
	spec := scenario.Generate(seed)
	sc, err := scenario.Compile(spec, scenario.Options{})
	if err != nil {
		return cell{}, fmt.Errorf("hunt seed %d: %w", seed, err)
	}
	if depth > 2 {
		if cfg.Topology, err = bench.TopologyForDepth(sc.RSSBytes(), rt, depth, cfg.CapKind); err != nil {
			return cell{}, err
		}
	}
	c := cell{
		label:  huntLabel(seed),
		load:   sc,
		config: bench.ScenarioMachine(sc, rt, cfg),
		budget: budget,
		policy: func(wrap func(sim.Policy) sim.Policy) sim.Policy {
			return scenario.NewProbe(wrap(bench.NewPolicy(pol)), seed, sc.FaultConfig())
		},
		spaces: sc.NumTenants(),
	}
	if replayable(spec) {
		c.stream = sc
	}
	return c, nil
}

// replayable reports whether a scenario's stream can be replayed on a
// space prepared by Run(m, 0): one address space, no frees, and no
// 603.bwaves phase (its stepper reserves and frees mid-stream).
func replayable(spec scenario.Spec) bool {
	if len(spec.Tenants) > 0 {
		return false
	}
	for _, p := range spec.Phases {
		if len(p.Free) > 0 || p.Workload == "603.bwaves" || p.Trace != "" {
			return false
		}
	}
	return true
}

func runHunt(_ context.Context, seed int64, scale float64, _ int) (*outcome, error) {
	budget := scaled(huntAccesses, scale)
	o := newOutcome()
	for i := 0; i < huntSeeds; i++ {
		s := uint64(seed) + uint64(i)
		t := time.Now()
		h, err := bench.HuntScenario(s, budget, "")
		ms := float64(time.Since(t)) / 1e6
		if err != nil {
			o.cells++
			o.fail(huntLabel(s), err.Error())
			continue
		}
		o.add(huntLabel(s), h.Result, 0, budget)
		for _, v := range h.Violations {
			fmt.Fprintln(o.digest, v)
		}
		if h.Failed() {
			o.fail(huntLabel(s), h.Violations[0])
		}
		o.violations += len(h.Violations)
		o.seedMS = append(o.seedMS, ms)
		if h.Shards > 1 {
			o.shardedSeedMS = append(o.shardedSeedMS, ms)
		}
	}
	return o, nil
}

// splitmix64 and fnv1a are the hashes bench derives the hunt machine
// seed with.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
