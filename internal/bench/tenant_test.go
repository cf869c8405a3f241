// Tenant-isolation conformance suite (DESIGN.md §10): every policy in
// the registry must honour the QoS arbiter's contracts — fast-tier
// floors hold once warmed, weighted shares bound contended promotions,
// adversarial neighbours cannot evict a floored tenant — at tenant
// counts from 1 to 1024, under churn and under injected migration
// faults. Plus the determinism and churn-accounting property tests the
// multi-tenant scheduler promises.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"memtis/internal/dist"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// tenantMachine sizes a machine for a tenant mix like MachineFor: fast
// tier at the ratio's fraction of the combined footprint, capacity
// with headroom.
func tenantMachine(rss uint64, rt Ratio, seed int64, faultPpm uint32) sim.Config {
	fast := uint64(float64(rss) * rt.FastFrac)
	if fast < tier.HugePageSize*2 {
		fast = tier.HugePageSize * 2
	}
	mc := sim.Config{
		FastBytes: fast,
		CapBytes:  rss + rss/4 + 16*tier.HugePageSize,
		CapKind:   tier.NVM,
		THP:       true,
		Seed:      seed,
	}
	mc.Faults.MigrateFailPpm = faultPpm
	return mc
}

// runTenantCell builds a churning tenant mix with a floored first
// tenant, runs it under one policy with injected faults, and checks
// the invariants every cell must hold: the exact global budget, a
// clean audit, zero floor violations, and per-tenant accesses that sum
// to the budget.
func runTenantCell(t *testing.T, pol string, n int, budget uint64) sim.Result {
	t.Helper()
	pt := TenantPoint{Tenants: n, Skew: "8to1", ChurnFrac: 0.25}
	if n == 1 {
		pt = TenantPoint{Tenants: 1, Skew: "flat"}
	}
	tc, rss := TenantMix(pt, tenantSweepBytes(n))
	tc.Tenants[0].FloorBytes = 2 << 20
	tn, err := tenant.New(tc)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(dist.SplitMix64(dist.FNV1a(pol)^uint64(n)) | 1)
	m := sim.NewMachine(tenantMachine(rss, Ratio1to8, seed, 50_000), NewPolicy(pol))
	tn.Run(m, budget)
	if err := m.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	res := m.Finish("tenants")
	if res.Accesses != budget {
		t.Fatalf("ran %d accesses, want %d", res.Accesses, budget)
	}
	for _, mt := range res.Counters {
		if strings.HasSuffix(mt.Name, "/floor_violations") && mt.Value > 0 {
			t.Errorf("%s = %d, want 0", mt.Name, mt.Value)
		}
	}
	if n == 1 {
		if len(res.Tenants) != 0 {
			t.Fatalf("single-tenant run grew %d tenant rows", len(res.Tenants))
		}
		return res
	}
	if len(res.Tenants) != n {
		t.Fatalf("%d tenant rows, want %d", len(res.Tenants), n)
	}
	var sum uint64
	for _, tr := range res.Tenants {
		sum += tr.Accesses
	}
	if sum != budget {
		t.Fatalf("tenant accesses sum to %d, want %d", sum, budget)
	}
	return res
}

// TestTenantConformance is the acceptance matrix: every registered
// policy at 1, 64 and 1024 tenants, with churn and a 5% migration
// fault rate.
func TestTenantConformance(t *testing.T) {
	counts := []int{1, 64, 1024}
	if testing.Short() {
		counts = []int{1, 64}
	}
	for _, n := range counts {
		for _, pol := range AllPolicies {
			n, pol := n, pol
			t.Run(fmt.Sprintf("t%d/%s", n, pol), func(t *testing.T) {
				runTenantCell(t, pol, n, 30_000)
			})
		}
	}
}

// TestTenantFloorHolds pins the floor-once-warmed contract under
// sustained pressure: a floored tenant that filled its floor is never
// pushed below it by a run-long contender, for any policy.
func TestTenantFloorHolds(t *testing.T) {
	for _, pol := range AllPolicies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			floor := uint64(4 << 20)
			tc := tenant.Config{Tenants: []tenant.Spec{
				{Name: "vip", FloorBytes: floor, Workload: NewTenantLoad("vip", 8<<20)},
				{Name: "noisy", Weight: 16, Workload: NewTenantLoad("noisy", 48<<20)},
			}}
			tn, err := tenant.New(tc)
			if err != nil {
				t.Fatal(err)
			}
			m := sim.NewMachine(tenantMachine(56<<20, Ratio1to8, 11, 0), NewPolicy(pol))
			tn.Run(m, 200_000)
			if err := m.Audit(); err != nil {
				t.Fatal(err)
			}
			res := m.Finish("floor")
			for _, mt := range res.Counters {
				if strings.HasSuffix(mt.Name, "/floor_violations") && mt.Value > 0 {
					t.Errorf("%s = %d, want 0", mt.Name, mt.Value)
				}
			}
		})
	}
}

// TestTenantWeightedShare pins the contended-share contract end to
// end: under fast-tier contention an 8:1 weight split must bound the
// light tenant's contended promotions to its share plus the burst
// slack, for every policy whose migrations actually hit the contended
// path (sampling-driven policies legitimately promote nothing on this
// uniform-hot mix; at least one policy must exercise the path or the
// test is vacuous).
func TestTenantWeightedShare(t *testing.T) {
	exercised := 0
	for _, pol := range AllPolicies {
		tc := tenant.Config{Tenants: []tenant.Spec{
			{Name: "heavy", Weight: 8, Workload: NewTenantLoad("heavy", 32<<20)},
			{Name: "light", Weight: 1, Workload: NewTenantLoad("light", 32<<20)},
		}}
		tn, err := tenant.New(tc)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.NewMachine(tenantMachine(64<<20, Ratio1to8, 23, 0), NewPolicy(pol))
		tn.Run(m, 600_000)
		if err := m.Audit(); err != nil {
			t.Fatalf("%s: audit: %v", pol, err)
		}
		res := m.Finish("share")
		get := func(name string) uint64 {
			for _, mt := range res.Counters {
				if mt.Name == name {
					return mt.Value
				}
			}
			t.Fatalf("%s: counter %s missing", pol, name)
			return 0
		}
		heavy := get("tenant/heavy/contended_promotions")
		light := get("tenant/light/contended_promotions")
		total := heavy + light
		if total == 0 {
			continue
		}
		exercised++
		// light's cap: weight 1 of 9, plus the arbiter's burst slack and
		// one in-flight huge-page move of tolerance.
		if limit := total/9 + 3*tier.SubPages; light > limit {
			t.Errorf("%s: light tenant took %d of %d contended promotions, cap %d",
				pol, light, total, limit)
		}
	}
	if exercised == 0 {
		t.Fatal("no policy produced contended promotions; the share path went unexercised")
	}
}

// TestTenantAdversarialNeighbor is the Zipf-hammer isolation test: a
// small floored tenant shares the machine with a hot-and-heavy
// neighbour 6x its size and 16x its weight. The floor must hold for
// every policy, and under memtis the victim must actually retain fast
// residency at least a quarter of its floor.
func TestTenantAdversarialNeighbor(t *testing.T) {
	run := func(pol string) sim.Result {
		floor := uint64(4 << 20)
		tc := tenant.Config{Tenants: []tenant.Spec{
			{Name: "vip", FloorBytes: floor, Workload: NewTenantLoad("vip", 8<<20)},
			{Name: "hammer", Weight: 16, Workload: zipfHammer{}},
		}}
		tn, err := tenant.New(tc)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.NewMachine(tenantMachine(56<<20, Ratio1to8, 31, 0), NewPolicy(pol))
		tn.Run(m, 300_000)
		if err := m.Audit(); err != nil {
			t.Fatal(err)
		}
		return m.Finish("adversary")
	}
	value := func(res sim.Result, name string) uint64 {
		for _, mt := range res.Counters {
			if mt.Name == name {
				return mt.Value
			}
		}
		return 0
	}
	for _, pol := range AllPolicies {
		res := run(pol)
		if v := value(res, "tenant/vip/floor_violations"); v > 0 {
			t.Errorf("%s: vip floor violated %d times", pol, v)
		}
	}
	res := run("memtis")
	fast := value(res, "tenant/vip/fast_pages") * tier.BasePageSize
	if fast < (4<<20)/4 {
		t.Fatalf("memtis: vip holds %d fast bytes against the hammer, want >= %d", fast, (4<<20)/4)
	}
}

// zipfHammer is the adversarial neighbour: a tight Zipf-like stream
// that concentrates heat so the policy wants all of the fast tier for
// it.
type zipfHammer struct{}

func (zipfHammer) Name() string { return "hammer" }

func (h zipfHammer) Run(m *sim.Machine, accesses uint64) { workload.Run(m, h, accesses) }

func (zipfHammer) Stream(m *sim.Machine, budget uint64) workload.Stream {
	r := m.Reserve(48 << 20)
	base := dist.SplitMix64(uint64(m.Cfg.Seed) ^ dist.FNV1a("hammer"))
	var ctr uint64
	return workload.Sweep(func() (uint64, bool) {
		ctr++
		x := dist.SplitMix64(base + ctr)
		// Geometric-ish skew: most probes land in the first pages.
		span := r.Pages >> (x % 10)
		if span == 0 {
			span = 1
		}
		return r.BaseVPN + (x>>16)%span, x&3 == 0
	}, budget, workload.Unbounded, 1)
}

// TestTenantChurnProperty is the churn accounting property test: over
// five seeds of spawn/grow/shrink/exit churn, the machine audit is
// clean after every single churn event, exited tenants hold no
// resident pages, and the final resident total equals the sum over
// live tenant spaces (no leaked pages).
func TestTenantChurnProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var m *sim.Machine
			tc := tenant.Config{
				Tenants: []tenant.Spec{
					{Name: "base", Workload: NewTenantLoad("base", 8<<20),
						GrowBytes: 4 << 20, GrowFrac: 0.3, ShrinkFrac: 0.8},
					{Name: "early", Workload: NewTenantLoad("early", 8<<20),
						ExitFrac: 0.5},
					{Name: "late", Workload: NewTenantLoad("late", 8<<20),
						SpawnFrac: 0.2, ExitFrac: 0.9},
					{Name: "mid", Workload: NewTenantLoad("mid", 8<<20),
						SpawnFrac: 0.4},
				},
				OnChurn: func(kind tenant.ChurnKind, id int) {
					if err := m.Audit(); err != nil {
						t.Fatalf("audit after %s of tenant %d: %v", kind, id, err)
					}
					if kind == tenant.ChurnExit {
						if ru := m.Space(id).ResidentUnits(); ru != 0 {
							t.Fatalf("tenant %d exited with %d resident pages", id, ru)
						}
					}
				},
			}
			tn, err := tenant.New(tc)
			if err != nil {
				t.Fatal(err)
			}
			m = sim.NewMachine(tenantMachine(40<<20, Ratio1to8, seed, 0), NewPolicy("memtis"))
			tn.Run(m, 150_000)
			if err := m.Audit(); err != nil {
				t.Fatalf("final audit: %v", err)
			}
			var sum uint64
			for i := 0; i < len(m.Spaces()); i++ {
				sum += m.Space(i).ResidentUnits() * tier.BasePageSize
			}
			if got := m.RSSBytes(); got != sum {
				t.Fatalf("machine RSS %d != %d summed over tenant spaces", got, sum)
			}
			res := m.Finish("churn")
			if res.Accesses != 150_000 {
				t.Fatalf("ran %d accesses, want 150000", res.Accesses)
			}
		})
	}
}

// TestTenantTraceDeterminism extends the event-trace golden to the
// multi-tenant scheduler: the same seed must produce byte-identical
// per-tenant event traces (spawns, switches, exits interleaved with
// migrations) whether cells run sequentially or on eight workers. Run
// under -race this also proves parallel cells share no scheduler or
// machine state.
func TestTenantTraceDeterminism(t *testing.T) {
	mk := func(name string) []scenario.Phase {
		return []scenario.Phase{
			{Grow: []scenario.Region{{Name: name, Bytes: 6 << 20}},
				Mix: []scenario.MixEntry{{Region: name, Dist: "zipf", S: 0.99}}},
		}
	}
	sc := scenario.MustCompile(scenario.Spec{
		Name: "multideterminism",
		Tenants: []scenario.TenantSpec{
			{Name: "a", Weight: 4, FloorBytes: 2 << 20, Phases: mk("ra")},
			{Name: "b", Phases: mk("rb"), SpawnFrac: 0.1, ExitFrac: 0.8},
			{Name: "c", Phases: mk("rc"), GrowBytes: 2 << 20, GrowFrac: 0.3},
		},
	}, scenario.Options{})
	cfg := DefaultConfig()
	cfg.Accesses = 120_000
	runInto := func(r *Runner) map[string][]byte {
		c := cfg
		c.EventDir = t.TempDir()
		if _, err := r.RunScenarioMatrix(context.Background(), c, []*scenario.Runner{sc},
			[]Ratio{Ratio1to8}, []string{"memtis"}); err != nil {
			t.Fatal(err)
		}
		return readTraces(t, c.EventDir)
	}
	seq := runInto(Sequential())
	par := runInto(Parallel(8))
	if len(seq) == 0 {
		t.Fatal("no traces written")
	}
	for name, data := range seq {
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
		if !bytes.Equal(data, par[name]) {
			t.Fatalf("%s differs between sequential and 8-worker runs", name)
		}
	}
	cell, ok := seq["multideterminism_1to8_memtis.events.jsonl"]
	if !ok {
		t.Fatalf("cell trace missing; files: %v", keys(seq))
	}
	for _, kind := range []string{"tenant_spawn", "tenant_switch", "tenant_exit"} {
		if !bytes.Contains(cell, []byte(kind)) {
			t.Fatalf("trace has no %s events", kind)
		}
	}
}

// TestTenantSweep pins the sweep harness: the single-tenant reference
// row normalises to 1.0, every requested cell exists, and the table
// renders one row per point.
func TestTenantSweep(t *testing.T) {
	points := []TenantPoint{
		{Tenants: 1, Skew: "flat"},
		{Tenants: 4, Skew: "8to1", ChurnFrac: 0.5},
	}
	pols := []string{"memtis", "static"}
	cfg := DefaultConfig()
	cfg.Accesses = 40_000
	m, err := Parallel(4).TenantSweep(context.Background(), cfg, Ratio1to8, pols, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != len(points)*len(pols) {
		t.Fatalf("%d cells, want %d", len(m.Cells), len(points)*len(pols))
	}
	for _, p := range pols {
		ref, ok := m.Get("tenants", tenantCoord(Ratio1to8, points[0]), p)
		if !ok || ref != 1.0 {
			t.Fatalf("%s reference cell = %v, %v; want 1.0", p, ref, ok)
		}
		if v, ok := m.Get("tenants", tenantCoord(Ratio1to8, points[1]), p); !ok || v <= 0 {
			t.Fatalf("%s multi-tenant cell = %v, %v", p, v, ok)
		}
	}
	tbl := TenantSweepTable("tenant sweep", m, Ratio1to8, pols, points)
	if len(tbl.Rows) != len(points) {
		t.Fatalf("table has %d rows, want %d", len(tbl.Rows), len(points))
	}
}
