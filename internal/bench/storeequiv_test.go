package bench

import (
	"fmt"
	"testing"

	memtis "memtis/internal/core"
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
	"memtis/internal/workload"
)

// The page-store equivalence suite pins the struct-of-arrays migration
// of internal/vm (DESIGN.md §12): its pins (the store/ lines of
// testdata/pins.txt) were first recorded from the historical
// pointer-linked vm.Page layout, and every later representation of the
// page store must reproduce them bit for bit — same event traces, same
// counters, same end-state stats — across seeds and across workloads
// that exercise every structural mutation of the table (demand faults,
// promotion/demotion, huge-page split, collapse, region churn, and
// fault-aborted migration transactions). A layout-only change must
// never move a pin.

// churnWorkload drives every structural page-table mutation in one
// deterministic stream: a THP region (huge pages, split candidates), a
// base-page arena of small reservations (collapse candidates), skewed
// steady-state access over both, and periodic free-and-reallocate
// churn of a side region.
type churnWorkload struct{ seed int64 }

func (c churnWorkload) Name() string { return "store-churn" }

func (c churnWorkload) Run(m *sim.Machine, accesses uint64) {
	big := m.Reserve(24 << 20) // THP-backed: 12 huge pages
	var smalls []vm.Region
	for i := 0; i < 8; i++ {
		smalls = append(smalls, m.Reserve(512<<10)) // base pages
	}
	churn := m.Reserve(2 << 20)
	// First-touch init: write every base VPN of the big region so every
	// subpage is marked touched (splits then keep all 512 survivors and
	// a later collapse can find a fully-present block), then the small
	// arena.
	for vpn := big.BaseVPN; vpn < big.BaseVPN+big.Pages && m.Accesses() < accesses; vpn++ {
		m.Access(vpn, true)
	}
	for _, r := range smalls {
		for vpn := r.BaseVPN; vpn < r.BaseVPN+r.Pages && m.Accesses() < accesses; vpn++ {
			m.Access(vpn, true)
		}
	}
	// Steady phase one: heavily skewed subpage access — each huge page
	// has 8 hot subpages — which is exactly the §4.3 split trigger
	// (high concentration, low utilization), plus small-arena and churn
	// traffic. Phase two (last 40% of the budget) hammers one 2MB block
	// uniformly so its split remnants all turn hot and collapse.
	hammer := big.BaseVPN + 5*512
	x := uint64(c.seed)*2862933555777941757 + 3037000493
	i := 0
	for m.Accesses() < accesses {
		x = x*2862933555777941757 + 3037000493
		r := x >> 33
		var vpn uint64
		switch {
		case m.Accesses() > accesses*3/5 && r%4 != 0:
			vpn = hammer + (r>>4)%512
		case r%8 < 5: // skewed: huge page (r>>3)%12, subpage (r>>8)%8
			vpn = big.BaseVPN + ((r>>3)%12)*512 + ((r>>8)%8)*61
		case r%8 < 7: // small arena
			s := smalls[(r>>3)%uint64(len(smalls))]
			vpn = s.BaseVPN + (r>>9)%s.Pages
		default: // churn region
			vpn = churn.BaseVPN + (r>>3)%churn.Pages
		}
		m.Access(vpn, r%5 == 0)
		i++
		if i%50000 == 0 {
			m.FreeRegion(churn)
			churn = m.Reserve(2 << 20)
		}
	}
}

// runStoreEquivCell runs one cell.
func runStoreEquivCell(name string, seed int64, faults bool) (pin, sim.Result) {
	var w sim.Workload
	fastBytes, capBytes := uint64(8<<20), uint64(64<<20)
	if name == "silo" {
		sw := workload.MustNew("silo")
		rss := sw.Spec().RSSBytes()
		fastBytes, capBytes = rss/9, rss+rss/4+16*tier.HugePageSize
		w = sw
	} else {
		w = churnWorkload{seed: seed}
	}
	cfg := sim.Config{
		FastBytes: fastBytes,
		CapBytes:  capBytes,
		CapKind:   tier.NVM,
		THP:       true,
		Seed:      seed,
		RecordNS:  2_000_000,
	}
	if faults {
		cfg.Faults = tier.FaultConfig{MigrateFailPpm: 50_000, MaxRetries: 2}
	}
	// Dense fixed-period sampling plus a long cooling interval: at the
	// suite's compressed scale the default self-adjusting sampler is too
	// sparse for a hammered 2MB block to hold all 512 subpages hot
	// across a cooling epoch (coupon-collector: some subpage always
	// cools to bin 0), which would leave the collapse path permanently
	// unexercised.
	smp := pebs.DefaultConfig()
	smp.LoadPeriod, smp.MinPeriod, smp.MaxPeriod = 8, 8, 8
	pol := memtis.New(memtis.Config{Sampler: smp, CoolEvery: 12_000})
	return runPin(cfg, pol, w, 400_000)
}

// storeEquivCells enumerates the golden cells: 5 seeds of the churn
// workload, plus silo (the Table 2 split-heavy model) and a
// fault-injected churn cell covering the abort/rollback paths.
func storeEquivCells() map[string]pinCell {
	cells := map[string]pinCell{}
	for seed := int64(42); seed < 47; seed++ {
		cells[fmt.Sprintf("churn_seed%d", seed)] = func() (pin, sim.Result) {
			return runStoreEquivCell("churn", seed, false)
		}
	}
	cells["silo_seed42"] = func() (pin, sim.Result) { return runStoreEquivCell("silo", 42, false) }
	cells["churn_faults_seed42"] = func() (pin, sim.Result) { return runStoreEquivCell("churn", 42, true) }
	return cells
}

// TestPageStoreEquivalence drives the equivalence cells and checks
// their pins.
func TestPageStoreEquivalence(t *testing.T) {
	// Coverage floor: the suite is only meaningful if the cells really
	// exercise the structural mutations it claims to pin.
	var tot vm.Stats
	for _, res := range checkPins(t, "store", storeEquivCells()) {
		tot.Splits += res.VM.Splits
		tot.Collapses += res.VM.Collapses
		tot.Migrations4K += res.VM.Migrations4K
		tot.MigrateAborts += res.VM.MigrateAborts
	}
	if tot.Splits == 0 || tot.Collapses == 0 || tot.Migrations4K == 0 || tot.MigrateAborts == 0 {
		t.Fatalf("suite lost structural coverage: splits %d, collapses %d, migrations %d, aborts %d",
			tot.Splits, tot.Collapses, tot.Migrations4K, tot.MigrateAborts)
	}
}
