package bench

import (
	"fmt"
	"path/filepath"
	"testing"

	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/trace"
	"memtis/internal/workload"
)

// The drive-model equivalence suite pins how every workload drives the
// machine: its pins (the drive/ lines of testdata/pins.txt) were first
// recorded before the workloads became op streams under one driver,
// and every later drive mechanism must reproduce them bit for bit —
// same event trace, same result, same virtual clock. The cells cover
// the eight Table 2 models under two policies, a Synthetic spec, a
// trace replay, fixed conformance-hunt seeds (multi-tenant specs,
// free/grow churn, 603.bwaves phases), trace-phase scenarios and a
// multi-tenant mix of Table 2 models whose tenants grow, shrink, spawn
// and exit while mid-phase. A drive-machinery change must never move
// a pin.

// driveEquivHuntSeeds are conformance-hunt seeds whose generated specs
// span the drive surface: multi-tenant mixes with grow churn landing
// mid-phase (2, 4, 10, 34), 603.bwaves phases single- and multi-tenant
// (5, 10, 21, 42, 95, 101, 117), and free/grow phase churn (25, 43,
// 101, 117).
var driveEquivHuntSeeds = []uint64{2, 4, 5, 10, 21, 25, 34, 42, 43, 95, 101, 117}

// smallMachine is a fixed 1:8-ish machine for the hand-built cells.
func smallMachine(rss uint64, seed int64) sim.Config {
	return sim.Config{
		FastBytes: max(rss/9, 2*tier.HugePageSize),
		CapBytes:  rss + rss/4 + 16*tier.HugePageSize,
		CapKind:   tier.NVM,
		THP:       true,
		Seed:      seed,
	}
}

// driveTraceRecords is a deterministic recorded stream: a strided sweep
// with a hot prefix, over a 3000-page span starting away from zero (so
// replay's rebasing is exercised).
func driveTraceRecords() []trace.Record {
	recs := make([]trace.Record, 24_000)
	x := uint64(12345)
	for i := range recs {
		x = x*6364136223846793005 + 1442695040888963407
		vpn := 5000 + (x>>33)%3000
		if x>>62 == 0 {
			vpn = 5000 + (x>>40)%64
		}
		recs[i] = trace.Record{VPN: vpn, Write: (x>>20)%4 == 0}
	}
	return recs
}

// driveHuntCell reproduces the scenario leg of HuntScenario for seed,
// traced.
func driveHuntCell(seed uint64) (pin, sim.Result) {
	h, cfg, err := huntSetup(seed, 100_000)
	if err != nil {
		panic(err)
	}
	sc, mc, err := huntMachine(h.Spec, h.Ratio, h.Depth, cfg)
	if err != nil {
		panic(err)
	}
	probe := scenario.NewProbe(NewPolicy(h.Policy), seed, sc.FaultConfig())
	return runPin(mc, probe, sc, cfg.Accesses)
}

// driveEquivCells enumerates the golden cells. dir holds the trace file
// the trace-phase scenarios reference.
func driveEquivCells(dir string) map[string]pinCell {
	cells := map[string]pinCell{}
	for _, s := range workload.Specs() {
		for _, p := range []string{"memtis", "tpp"} {
			cells["model/"+s.Name+"/"+p] = func() (pin, sim.Result) {
				w := workload.MustNew(s.Name)
				return runPin(MachineFor(s, Ratio1to8, p, DefaultConfig()), NewPolicy(p), w, 300_000)
			}
		}
	}
	cells["synthetic"] = func() (pin, sim.Result) {
		syn, err := workload.NewSynthetic(workload.SyntheticSpec{
			Name: "drive-synth",
			Regions: []workload.SyntheticRegion{
				{Name: "heap", Bytes: 12 << 20},
				{Name: "index", Bytes: 3 << 20},
				{Name: "lazy", Bytes: 6 << 20, SkipInit: true},
			},
			Phases: []workload.SyntheticPhase{
				{Region: "heap", Weight: 6, Dist: "zipf", S: 0.99, Scramble: true, WritePercent: 20},
				{Region: "index", Weight: 3, Dist: "uniform", WritePercent: 5},
				{Region: "lazy", Weight: 1, Dist: "seq", WritePercent: 50},
			},
		})
		if err != nil {
			panic(err)
		}
		return runPin(smallMachine(syn.TotalBytes(), 42), NewPolicy("memtis"), syn, 200_000)
	}
	cells["replay"] = func() (pin, sim.Result) {
		rep := trace.NewReplay("drive-replay", driveTraceRecords())
		return runPin(smallMachine(rep.SpanPages()*tier.BasePageSize, 43), NewPolicy("tpp"), rep, 70_000)
	}
	for _, seed := range driveEquivHuntSeeds {
		cells[fmt.Sprintf("hunt/%d", seed)] = func() (pin, sim.Result) { return driveHuntCell(seed) }
	}
	// A single-tenant scenario walking every phase kind, trace phases
	// included (generated specs never carry one).
	cells["scenario/trace"] = func() (pin, sim.Result) {
		sc := scenario.MustCompile(scenario.Spec{
			Name: "drive-trace",
			Phases: []scenario.Phase{
				{Grow: []scenario.Region{{Name: "a", Bytes: 6 << 20}},
					Mix: []scenario.MixEntry{{Region: "a", Dist: "zipf", S: 0.99, Scramble: true, WritePercent: 30}}},
				{Trace: "drive.trace", Weight: 2},
				{Free: []string{"a"}, Grow: []scenario.Region{{Name: "b", Bytes: 3 << 20, SkipInit: true}},
					Workload: "603.bwaves", RSSGB: 0.5},
				{Grow: []scenario.Region{{Name: "c", Bytes: 2 << 20}}},
				{Trace: "drive.trace"},
				{Mix: []scenario.MixEntry{{Region: "b", Dist: "seq"}, {Region: "c", Dist: "uniform", WritePercent: 60}}},
			},
		}, scenario.Options{Dir: dir})
		return runPin(ScenarioMachine(sc, Ratio1to8, DefaultConfig()), NewPolicy("memtis"), sc, 150_000)
	}
	// The multi-tenant form with trace phases, and grow/shrink churn on
	// tenants that are mid-phase when it fires.
	cells["scenario/tenants_trace"] = func() (pin, sim.Result) {
		sc := scenario.MustCompile(scenario.Spec{
			Name: "drive-tenants",
			Tenants: []scenario.TenantSpec{
				{Name: "replay", Weight: 2, Phases: []scenario.Phase{
					{Trace: "drive.trace"},
					{Grow: []scenario.Region{{Name: "x", Bytes: 4 << 20}},
						Mix: []scenario.MixEntry{{Region: "x", Dist: "zipf", S: 1.1}}},
				}, GrowBytes: 2 << 20, GrowFrac: 0.15, ShrinkFrac: 0.6},
				{Name: "graph", Phases: []scenario.Phase{
					{Workload: "graph500", RSSGB: 1.5},
					{Trace: "drive.trace"},
				}, GrowBytes: 1 << 20, GrowFrac: 0.05},
				{Name: "late", FloorBytes: 1 << 20, SpawnFrac: 0.2, ExitFrac: 0.7, Phases: []scenario.Phase{
					{Workload: "btree", RSSGB: 0.5},
				}},
			},
		}, scenario.Options{Dir: dir})
		return runPin(ScenarioMachine(sc, Ratio1to8, DefaultConfig()), NewPolicy("memtis"), sc, 200_000)
	}
	// Three Table 2 models as tenants: a graph500 grow fires during its
	// edge-generation sweep, bwaves spawns late and exits mid-churn.
	cells["tenants/models3"] = func() (pin, sim.Result) {
		scaled := func(name string, gb float64) *workload.W {
			w, err := workload.NewScaled(name, gb)
			if err != nil {
				panic(err)
			}
			return w
		}
		silo, graph, bwaves := scaled("silo", 2), scaled("graph500", 3), scaled("603.bwaves", 1)
		tn, err := tenant.New(tenant.Config{Tenants: []tenant.Spec{
			{Name: "silo", Weight: 2, FloorBytes: 2 << 20, Workload: silo},
			{Name: "graph", Workload: graph, GrowBytes: 2 << 20, GrowFrac: 0.05, ShrinkFrac: 0.5},
			{Name: "bwaves", Workload: bwaves, SpawnFrac: 0.1, ExitFrac: 0.8},
		}})
		if err != nil {
			panic(err)
		}
		rss := silo.Spec().RSSBytes() + graph.Spec().RSSBytes() + bwaves.Spec().RSSBytes() + 2<<20
		return runPin(tenantMachine(rss, Ratio1to8, 44, 0), NewPolicy("memtis"), tn, 300_000)
	}
	return cells
}

// TestDriveEquivalence drives every cell and checks its pin.
func TestDriveEquivalence(t *testing.T) {
	dir := t.TempDir()
	if err := trace.SaveFile(filepath.Join(dir, "drive.trace"), driveTraceRecords()); err != nil {
		t.Fatal(err)
	}
	checkPins(t, "drive", driveEquivCells(dir))
}
