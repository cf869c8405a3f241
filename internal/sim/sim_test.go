package sim

import (
	"testing"

	"memtis/internal/tier"
	"memtis/internal/vm"
)

func testCfg() Config {
	return Config{
		FastBytes: 2 * tier.HugePageSize,
		CapBytes:  8 * tier.HugePageSize,
		CapKind:   tier.NVM,
		THP:       true,
		Seed:      1,
	}
}

// countingPolicy records the hooks the machine invokes.
type countingPolicy struct {
	m        *Machine
	accesses int
	ticks    int
	stall    uint64
	bgNS     uint64
	busy     float64
	place    tier.ID
}

func (p *countingPolicy) Name() string                  { return "counting" }
func (p *countingPolicy) Attach(m *Machine)             { p.m = m }
func (p *countingPolicy) PlaceNew(bool, uint64) tier.ID { return p.place }
func (p *countingPolicy) Tick(uint64)                   { p.ticks++ }
func (p *countingPolicy) BackgroundNS() uint64          { return p.bgNS }
func (p *countingPolicy) BusyCores() float64            { return p.busy }
func (p *countingPolicy) Capabilities() Capability      { return 0 }
func (p *countingPolicy) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	p.accesses++
	return p.stall
}

func TestAccessAdvancesClockByTierLatency(t *testing.T) {
	pol := &countingPolicy{place: tier.NoTier}
	m := NewMachine(testCfg(), pol)
	r := m.Reserve(tier.HugePageSize)
	m.Access(r.BaseVPN, false)
	// First access: 2M walk + huge fault + DRAM load.
	want := uint64(70) + vm.HugeFaultNS + tier.DRAMLoadNS
	if m.Now() != want {
		t.Fatalf("clock = %d, want %d", m.Now(), want)
	}
	m.Access(r.BaseVPN, false) // TLB hit, no fault
	if m.Now() != want+tier.DRAMLoadNS {
		t.Fatalf("clock = %d, want %d", m.Now(), want+tier.DRAMLoadNS)
	}
	if pol.accesses != 2 {
		t.Fatalf("policy saw %d accesses", pol.accesses)
	}
}

func TestCapacityTierLatencyCharged(t *testing.T) {
	pol := &countingPolicy{place: tier.CapacityTier}
	m := NewMachine(testCfg(), pol)
	r := m.Reserve(tier.HugePageSize)
	m.Access(r.BaseVPN, false)
	m.Access(r.BaseVPN, true)
	want := uint64(70) + vm.HugeFaultNS + tier.NVMLoadNS + tier.NVMStoreNS
	if m.Now() != want {
		t.Fatalf("clock = %d, want %d", m.Now(), want)
	}
}

func TestPolicyStallAddsToClock(t *testing.T) {
	pol := &countingPolicy{place: tier.NoTier, stall: 1000}
	m := NewMachine(testCfg(), pol)
	r := m.Reserve(4 * tier.BasePageSize)
	base := m.Now()
	m.Access(r.BaseVPN, false)
	m.Access(r.BaseVPN, false)
	delta := m.Now() - base
	want := uint64(96) + vm.BaseFaultNS + 2*tier.DRAMLoadNS + 2*1000
	if delta != want {
		t.Fatalf("delta = %d, want %d", delta, want)
	}
}

func TestTicksFire(t *testing.T) {
	cfg := testCfg()
	cfg.TickNS = 1000
	pol := &countingPolicy{place: tier.NoTier}
	m := NewMachine(cfg, pol)
	r := m.Reserve(tier.HugePageSize)
	for i := 0; i < 100; i++ {
		m.Access(r.BaseVPN+uint64(i), false)
	}
	if pol.ticks == 0 {
		t.Fatal("no ticks fired")
	}
	approx := int(m.Now() / cfg.TickNS)
	if pol.ticks < approx-1 || pol.ticks > approx+1 {
		t.Fatalf("ticks = %d, expected ~%d", pol.ticks, approx)
	}
}

func TestContentionInflatesWall(t *testing.T) {
	pol := &countingPolicy{place: tier.NoTier, busy: 1.0}
	m := NewMachine(testCfg(), pol) // Threads defaults to Cores: saturated
	r := m.Reserve(tier.HugePageSize)
	for i := 0; i < 100; i++ {
		m.Access(r.BaseVPN, false)
	}
	res := m.Finish("w")
	wantWall := float64(res.AppNS) * 20.0 / 19.0
	if float64(res.WallNS) < wantWall*0.99 || float64(res.WallNS) > wantWall*1.01 {
		t.Fatalf("wall = %d, want ~%.0f", res.WallNS, wantWall)
	}
	// With spare threads, no contention.
	cfg := testCfg()
	cfg.Threads = 16
	pol2 := &countingPolicy{place: tier.NoTier, busy: 1.0}
	m2 := NewMachine(cfg, pol2)
	r2 := m2.Reserve(tier.HugePageSize)
	for i := 0; i < 100; i++ {
		m2.Access(r2.BaseVPN, false)
	}
	res2 := m2.Finish("w")
	if res2.WallNS != res2.AppNS {
		t.Fatal("contention applied despite spare cores")
	}
}

func TestResultAccounting(t *testing.T) {
	pol := &countingPolicy{place: tier.NoTier}
	m := NewMachine(testCfg(), pol)
	r := m.Reserve(tier.HugePageSize) // fast-first: fast tier
	r2 := m.Reserve(tier.HugePageSize)
	m.Access(r.BaseVPN, false)
	m.Access(r.BaseVPN, false)
	pol.place = tier.CapacityTier
	m.Access(r2.BaseVPN, false)
	res := m.Finish("unit")
	if res.Accesses != 3 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	want := 2.0 / 3.0
	if res.FastHitRatio < want-1e-9 || res.FastHitRatio > want+1e-9 {
		t.Fatalf("hit ratio = %v", res.FastHitRatio)
	}
	if res.Workload != "unit" || res.Policy != "counting" {
		t.Fatal("labels")
	}
	if res.RSSFinal != 2*tier.HugePageSize {
		t.Fatalf("RSS = %d", res.RSSFinal)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput")
	}
}

func TestSeriesRecording(t *testing.T) {
	cfg := testCfg()
	cfg.RecordNS = 10_000
	pol := &countingPolicy{place: tier.NoTier}
	m := NewMachine(cfg, pol)
	r := m.Reserve(tier.HugePageSize)
	for i := 0; i < 2000; i++ {
		m.Access(r.BaseVPN+uint64(i%512), i%5 == 0)
	}
	res := m.Finish("w")
	if len(res.Series) == 0 {
		t.Fatal("no series points")
	}
	last := res.Series[len(res.Series)-1]
	if last.RSSBytes != tier.HugePageSize {
		t.Fatalf("series RSS = %d", last.RSSBytes)
	}
	if last.FastHitWin <= 0 {
		t.Fatal("windowed hit ratio missing")
	}
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i].TimeNS <= res.Series[i-1].TimeNS {
			t.Fatal("series not monotonic")
		}
	}
}

func TestNilPolicyRuns(t *testing.T) {
	m := NewMachine(testCfg(), nil)
	r := m.Reserve(tier.HugePageSize)
	m.Access(r.BaseVPN, true)
	res := m.Finish("w")
	if res.Policy != "none" || res.Accesses != 1 {
		t.Fatalf("%+v", res)
	}
}

type fixedWorkload struct{ n int }

func (f *fixedWorkload) Name() string { return "fixed" }
func (f *fixedWorkload) Run(m *Machine, accesses uint64) {
	r := m.Reserve(tier.HugePageSize)
	for m.Accesses() < accesses {
		m.Access(r.BaseVPN+m.Accesses()%512, false)
	}
}

func TestRunDeterminism(t *testing.T) {
	a := Run(testCfg(), &countingPolicy{place: tier.NoTier}, &fixedWorkload{}, 5000)
	b := Run(testCfg(), &countingPolicy{place: tier.NoTier}, &fixedWorkload{}, 5000)
	if a.AppNS != b.AppNS || a.FastHitRatio != b.FastHitRatio || a.Accesses != b.Accesses {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestAccessObserver(t *testing.T) {
	m := NewMachine(testCfg(), nil)
	r := m.Reserve(tier.HugePageSize)
	var seen int
	m.AccessObserver = func(vpn uint64, write bool, now uint64) { seen++ }
	for i := 0; i < 10; i++ {
		m.Access(r.BaseVPN, false)
	}
	if seen != 10 {
		t.Fatalf("observer saw %d", seen)
	}
}

// TestFreeRegionDeliversTicks: a large munmap advances the clock past
// tick boundaries, and those ticks must fire inside the free — the
// seed bumped m.now directly, deferring them to the next access.
func TestFreeRegionDeliversTicks(t *testing.T) {
	cfg := testCfg()
	cfg.TickNS = 100_000
	pol := &countingPolicy{place: tier.NoTier}
	m := NewMachine(cfg, pol)
	r := m.Reserve(8 << 20) // 2048 pages: teardown = 245,760ns
	m.FreeRegion(r)
	if pol.ticks != 2 {
		t.Fatalf("ticks delivered during FreeRegion = %d, want 2", pol.ticks)
	}
	if want := uint64(2048 * 120); m.Now() != want {
		t.Fatalf("clock after free = %d, want %d", m.Now(), want)
	}
}

// TestAdvanceBackgroundDeliversTicks: background time advances deliver
// due policy ticks and series samples, same as access-driven time.
func TestAdvanceBackgroundDeliversTicks(t *testing.T) {
	cfg := testCfg()
	cfg.TickNS = 50_000
	cfg.RecordNS = 60_000
	pol := &countingPolicy{place: tier.NoTier}
	m := NewMachine(cfg, pol)
	m.AdvanceBackground(125_000)
	if pol.ticks != 2 {
		t.Fatalf("ticks delivered during AdvanceBackground = %d, want 2", pol.ticks)
	}
	if len(m.series) != 1 {
		t.Fatalf("series samples = %d, want 1", len(m.series))
	}
	// The catch-up must schedule strictly ahead of the clock.
	if m.nextTick <= m.now || m.nextRecord <= m.now {
		t.Fatalf("catch-up left a due deadline: now=%d tick=%d record=%d",
			m.now, m.nextTick, m.nextRecord)
	}
}

// TestTierDepthBound pins the one depth bound: a machine over
// tier.MaxTiers tiers builds, one tier deeper is rejected.
func TestTierDepthBound(t *testing.T) {
	topo := func(n int) *tier.Topology {
		tp := &tier.Topology{}
		for i := 0; i < n; i++ {
			tp.Tiers = append(tp.Tiers, tier.Config{Kind: tier.NVM, Bytes: 2 * tier.HugePageSize})
		}
		return tp
	}
	cfg := testCfg()
	cfg.Topology = topo(tier.MaxTiers)
	if m := NewMachine(cfg, nil); m.Depth() != tier.MaxTiers {
		t.Fatalf("depth %d machine has %d tiers", tier.MaxTiers, m.Depth())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewMachine accepted a depth %d topology", tier.MaxTiers+1)
		}
	}()
	cfg.Topology = topo(tier.MaxTiers + 1)
	NewMachine(cfg, nil)
}

// TestChainArithmetic pins the chain arithmetic policies price moves
// with, on a 2-deep and a 4-deep chain whose hops all cost differently:
// PromoteTarget and DemoteTarget step one hop and clamp at the ends,
// AccessGainNS is the load-latency difference (negative for a
// demotion), HopCostNS sums every hop crossed in either direction, and
// a space added after construction holds the machine's tier objects.
func TestChainArithmetic(t *testing.T) {
	gb := func(kind tier.Kind) tier.Config { return tier.Config{Kind: kind, Bytes: 2 * tier.HugePageSize} }
	nvm := gb(tier.NVM)
	nvm.LoadNS, nvm.StoreNS = 350, 450
	for _, tc := range []struct {
		name     string
		topo     *tier.Topology
		fullBase uint64 // HopCostNS from the fast tier to the last
		fullHuge uint64
	}{
		{"2-deep", &tier.Topology{
			Tiers: []tier.Config{gb(tier.DRAM), gb(tier.NVM)},
			Hops:  []tier.HopConfig{{BaseCostNS: 1_100, HugeCostNS: 110_000}},
		}, 1_100, 110_000},
		{"4-deep", &tier.Topology{
			Tiers: []tier.Config{gb(tier.DRAM), gb(tier.CXL), nvm, gb(tier.Far)},
			Hops: []tier.HopConfig{
				{BaseCostNS: 1_100, HugeCostNS: 110_000},
				{BaseCostNS: 2_300, HugeCostNS: 230_000},
				{BaseCostNS: 4_700, HugeCostNS: 470_000},
			},
		}, 8_100, 810_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Topology = tc.topo
			m := NewMachine(cfg, nil)
			last := tier.ID(len(tc.topo.Tiers) - 1)
			if m.Depth() != len(tc.topo.Tiers) || m.LastTier() != last ||
				m.Fast != m.Tier(tier.FastTier) || m.Cap != m.Tier(last) {
				t.Fatalf("chain: depth %d, last %v, Fast/Cap not its ends", m.Depth(), m.LastTier())
			}
			if got := m.HopCostNS(tier.FastTier, last, false); got != tc.fullBase {
				t.Fatalf("base hop cost over the chain %d, want %d", got, tc.fullBase)
			}
			if got := m.HopCostNS(last, tier.FastTier, true); got != tc.fullHuge {
				t.Fatalf("huge hop cost over the chain %d, want %d", got, tc.fullHuge)
			}
			for s := tier.FastTier; s <= last; s++ {
				if got, want := m.PromoteTarget(s), max(s-1, tier.FastTier); got != want {
					t.Errorf("PromoteTarget(%v) = %v, want %v", s, got, want)
				}
				if got, want := m.DemoteTarget(s), min(s+1, last); got != want {
					t.Errorf("DemoteTarget(%v) = %v, want %v", s, got, want)
				}
				for d := tier.FastTier; d <= last; d++ {
					gain := m.AccessGainNS(s, d)
					if want := int64(m.Tier(s).LoadNS()) - int64(m.Tier(d).LoadNS()); gain != want {
						t.Errorf("AccessGainNS(%v, %v) = %d, want %d", s, d, gain, want)
					}
					if d > s && gain >= 0 {
						t.Errorf("demotion %v -> %v gains %d ns", s, d, gain)
					}
					var base, huge uint64
					for h := min(s, d); h < max(s, d); h++ {
						base += tc.topo.Hops[h].BaseCostNS
						huge += tc.topo.Hops[h].HugeCostNS
					}
					if got := m.HopCostNS(s, d, false); got != base {
						t.Errorf("HopCostNS(%v, %v, base) = %d, want %d", s, d, got, base)
					}
					if got := m.HopCostNS(s, d, true); got != huge {
						t.Errorf("HopCostNS(%v, %v, huge) = %d, want %d", s, d, got, huge)
					}
				}
			}
			late := m.Space(m.AddSpace("late"))
			for i := tier.FastTier; i <= last; i++ {
				if late.Tier(i) != m.Tier(i) {
					t.Errorf("a space added later sees another tier %v", i)
				}
			}
		})
	}
}

// tenantPage builds a machine with one added space and faults that
// space's first base page into the fast tier.
func tenantPage(t *testing.T) (*Machine, vm.Region, *vm.Page) {
	t.Helper()
	m := NewMachine(testCfg(), nil)
	id := m.AddSpace("tenant")
	m.UseSpace(id)
	r := m.Reserve(tier.BasePageSize)
	m.Access(r.BaseVPN, true)
	pg := m.Space(id).Lookup(r.BaseVPN)
	if pg == nil || pg.Owner != uint32(id) || pg.Tier != tier.FastTier {
		t.Fatalf("setup: space %d's page is %+v", id, pg)
	}
	return m, r, pg
}

// TestVetoSetAfterAddSpace: the migration veto is machine-wide, so one
// set on the root space after a tenant exists governs the tenant's
// pages too.
func TestVetoSetAfterAddSpace(t *testing.T) {
	m, _, pg := tenantPage(t)
	var asked []*vm.Page
	m.AS.MigrateVeto = func(p *vm.Page, dst tier.ID, units uint64) bool {
		asked = append(asked, p)
		return false
	}
	if _, st := m.Space(1).MigrateTx(pg, tier.CapacityTier); st != vm.MigrateDenied {
		t.Fatalf("migration through the tenant's handle = %v, want %v", st, vm.MigrateDenied)
	}
	if len(asked) != 1 || asked[0] != pg || pg.Tier != tier.FastTier {
		t.Fatalf("veto consulted for %v, page now on %v", asked, pg.Tier)
	}
}

// TestOnUnmapSetAfterAddSpace: the unmap hook is machine-wide, so one
// set on the root space after a tenant exists sees the tenant's frees.
func TestOnUnmapSetAfterAddSpace(t *testing.T) {
	m, r, pg := tenantPage(t)
	var unmapped []*vm.Page
	m.AS.OnUnmap = func(p *vm.Page) { unmapped = append(unmapped, p) }
	m.FreeRegion(r)
	if len(unmapped) != 1 || unmapped[0] != pg || !pg.Dead() {
		t.Fatalf("OnUnmap saw %v for the tenant's free", unmapped)
	}
}

// TestTenantMigrationCountsOnce: the machine holds one set of VM
// counters, so a tenant's fault and a migration through its handle
// read in the root space's Stats, and Finish reports exactly those.
func TestTenantMigrationCountsOnce(t *testing.T) {
	m, _, pg := tenantPage(t)
	if _, st := m.Space(1).MigrateTx(pg, tier.CapacityTier); st != vm.MigrateOK {
		t.Fatalf("migration = %v", st)
	}
	st := m.AS.Stats()
	if st.Faults != 1 || st.Migrations4K != 1 || st.Demotions != 1 {
		t.Fatalf("machine stats %+v, want 1 fault and 1 base-page demotion", st)
	}
	if m.Space(1).FastUnits() != 0 || m.Space(1).ResidentUnits() != 1 {
		t.Fatalf("tenant counts %d fast of %d resident units, want 0 of 1",
			m.Space(1).FastUnits(), m.Space(1).ResidentUnits())
	}
	if res := m.Finish("tenant"); res.VM != st {
		t.Fatalf("Finish().VM = %+v, want %+v", res.VM, st)
	}
}
