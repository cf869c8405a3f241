package bench

import (
	"fmt"
	"testing"

	memtis "memtis/internal/core"
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tenant"
)

// The tenant scheduler equivalence suite pins the scheduler (DESIGN.md
// §10): its pins (the tenant/ lines of testdata/pins.txt) were first
// recorded from the historical goroutine-per-tenant scheduler, and
// every later scheduler must reproduce them bit for bit — same event
// traces (tenant_spawn/switch/exit, promotions, faults), same counters,
// same per-tenant result rows, same virtual clock — across tenant
// counts, churn plans, floors, fault injection, and a zipfHammer
// neighbour whose budget is checked before every access rather than
// once per batch. A scheduler-machinery change must never move a pin.

// tenantEquivSpecs builds the cell's tenant mix: a floored, weighted
// immortal first tenant plus churning neighbours covering spawn, grow,
// shrink and exit, over TenantLoad streams. When hammer is set, the
// second tenant runs zipfHammer instead, a stream checking its budget
// before every access.
func tenantEquivSpecs(n int, hammer bool) ([]tenant.Spec, uint64) {
	per := tenantSweepBytes(n)
	specs := make([]tenant.Spec, n)
	var rss uint64
	for i := range specs {
		name := fmt.Sprintf("t%03d", i)
		specs[i] = tenant.Spec{
			Name:     name,
			Weight:   1,
			Workload: NewTenantLoad(name, per),
		}
		rss += per
		switch {
		case i == 0:
			specs[i].Weight = 8
			specs[i].FloorBytes = 2 << 20
		case i == 1 && hammer:
			specs[i].Workload = zipfHammer{}
			specs[i].SpawnFrac = 0.2
			specs[i].ExitFrac = 0.8
			rss += 48 << 20
		case i%2 == 1:
			specs[i].SpawnFrac = 0.1
			specs[i].ExitFrac = 0.7
		case i%4 == 2:
			specs[i].GrowBytes = 1 << 20
			specs[i].GrowFrac = 0.3
			specs[i].ShrinkFrac = 0.6
		}
	}
	return specs, rss
}

// runTenantEquivCell runs one cell.
func runTenantEquivCell(n int, seed int64, faultPpm uint32, dense, hammer bool) (pin, sim.Result) {
	specs, rss := tenantEquivSpecs(n, hammer)
	tn, err := tenant.New(tenant.Config{Tenants: specs, Slice: 4096})
	if err != nil {
		panic(err)
	}
	smp := pebs.DefaultConfig()
	if dense {
		// Dense fixed-period sampling exercises the full OnAccess path
		// heavily; the default self-adjusting config leaves most
		// accesses to the sampler-bypass fast path. The suite pins both.
		smp.LoadPeriod, smp.MinPeriod, smp.MaxPeriod = 8, 8, 8
	}
	pol := memtis.New(memtis.Config{Sampler: smp})
	return runPin(tenantMachine(rss, Ratio1to8, seed, faultPpm), pol, tn, 150_000)
}

// tenantEquivCells enumerates the golden cells: the single-tenant
// single-space path, churning 4- and 64-tenant mixes over two seeds,
// a dense-sampler cell, a fault-injected cell, and the zipfHammer cell.
func tenantEquivCells() map[string]pinCell {
	return map[string]pinCell{
		"n1_seed42":        func() (pin, sim.Result) { return runTenantEquivCell(1, 42, 0, false, false) },
		"n4_seed42":        func() (pin, sim.Result) { return runTenantEquivCell(4, 42, 0, false, false) },
		"n4_seed43":        func() (pin, sim.Result) { return runTenantEquivCell(4, 43, 0, false, false) },
		"n4_dense_seed42":  func() (pin, sim.Result) { return runTenantEquivCell(4, 42, 0, true, false) },
		"n4_faults_seed42": func() (pin, sim.Result) { return runTenantEquivCell(4, 42, 50_000, false, false) },
		"n64_seed42":       func() (pin, sim.Result) { return runTenantEquivCell(64, 42, 0, false, false) },
		"hammer_seed42":    func() (pin, sim.Result) { return runTenantEquivCell(3, 42, 0, false, true) },
	}
}

// TestTenantSchedulerEquivalence drives the equivalence cells and
// checks their pins.
func TestTenantSchedulerEquivalence(t *testing.T) {
	var migrations uint64
	for _, res := range checkPins(t, "tenant", tenantEquivCells()) {
		migrations += res.VM.Migrations4K
	}
	if migrations == 0 {
		t.Fatal("suite lost coverage: no cell migrated a page")
	}
}
