package policy

import (
	"testing"

	"memtis/internal/sim"
	"memtis/internal/tier"
)

func newM(t *testing.T, pol sim.Policy, fastBlocks, capBlocks int) *sim.Machine {
	t.Helper()
	return sim.NewMachine(sim.Config{
		FastBytes: uint64(fastBlocks) * tier.HugePageSize,
		CapBytes:  uint64(capBlocks) * tier.HugePageSize,
		CapKind:   tier.NVM,
		THP:       true,
		Seed:      1,
		TickNS:    100_000,
	}, pol)
}

func TestStaticNeverMigrates(t *testing.T) {
	pol := NewStatic()
	m := newM(t, pol, 2, 8)
	r := m.Reserve(6 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	for i := 0; i < 50_000; i++ {
		m.Access(r.BaseVPN+5*tier.SubPages, false)
	}
	st := m.AS.Stats()
	if st.Migrations4K+st.MigrationsHuge != 0 {
		t.Fatal("static policy migrated")
	}
}

func TestPinnedPlacement(t *testing.T) {
	pol := NewPinned(tier.CapacityTier, "all-capacity")
	m := newM(t, pol, 2, 8)
	r := m.Reserve(tier.HugePageSize)
	res := m.AS.Touch(r.BaseVPN, true)
	if res.Tier != tier.CapacityTier {
		t.Fatalf("pinned placement ignored: %v", res.Tier)
	}
	if pol.Name() != "all-capacity" {
		t.Fatal("label")
	}
}

func TestAutoNUMAPromotesOnHintFaultAndNeverDemotes(t *testing.T) {
	pol := NewAutoNUMA()
	m := newM(t, pol, 2, 16)
	r := m.Reserve(8 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	// Fast tier is full with the first two blocks; hammer a capacity
	// block long enough for the rearm sweep to arm it.
	hot := r.BaseVPN + 6*tier.SubPages
	for i := 0; i < 300_000; i++ {
		m.Access(hot+uint64(i)%tier.SubPages, false)
	}
	st := m.AS.Stats()
	if st.Demotions != 0 {
		t.Fatal("AutoNUMA demoted")
	}
	// Fast tier full: promotion must have been skipped silently.
	if m.AS.Lookup(hot).Tier != tier.CapacityTier {
		t.Fatal("promotion succeeded into a full tier without demotion support?")
	}
}

func TestAutoNUMAPromotesWhenRoomAvailable(t *testing.T) {
	pol := NewAutoNUMA()
	m := newM(t, pol, 4, 16)
	r := m.Reserve(2 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	// Force one block to capacity via direct migration, then access it.
	pg := m.AS.Lookup(r.BaseVPN)
	m.AS.MigrateTx(pg, tier.CapacityTier)
	for i := 0; i < 300_000 && m.AS.Lookup(r.BaseVPN).Tier != tier.FastTier; i++ {
		m.Access(r.BaseVPN+uint64(i)%tier.SubPages, false)
	}
	if m.AS.Lookup(r.BaseVPN).Tier != tier.FastTier {
		t.Fatal("AutoNUMA never promoted a hot page with free fast space")
	}
	if m.AS.Stats().Promotions == 0 {
		t.Fatal("no promotions recorded")
	}
}

func TestTPPDemotesToKeepHeadroom(t *testing.T) {
	pol := NewTPP()
	m := newM(t, pol, 2, 16)
	r := m.Reserve(8 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	// Run idle accesses so the demotion clock can restore head-room.
	for i := 0; i < 200_000; i++ {
		m.Access(r.BaseVPN+4*tier.SubPages+uint64(i)%tier.SubPages, false)
	}
	if m.Fast.FreeFrames() < pol.HeadroomFrames(pol.reserve)/2 {
		t.Fatalf("TPP kept no head-room: free=%d", m.Fast.FreeFrames())
	}
	if m.AS.Stats().Demotions == 0 {
		t.Fatal("no demotions")
	}
}

func TestTiering08AdaptsThreshold(t *testing.T) {
	pol := NewTiering08()
	m := newM(t, pol, 2, 16)
	r := m.Reserve(8 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	before := pol.threshNS
	// Idle promotion traffic: the threshold must loosen over time.
	for i := 0; i < 400_000; i++ {
		m.Access(r.BaseVPN+uint64(i)%(2*tier.SubPages), false)
	}
	if pol.threshNS <= before {
		t.Fatalf("threshold did not adapt upward: %d -> %d", before, pol.threshNS)
	}
}

func TestNimbleScanAndExchange(t *testing.T) {
	pol := NewNimble()
	m := newM(t, pol, 2, 16)
	r := m.Reserve(8 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	// Keep one capacity block hot; Nimble must exchange it in.
	hot := r.BaseVPN + 7*tier.SubPages
	for i := 0; i < 400_000; i++ {
		m.Access(hot+uint64(i)%tier.SubPages, false)
	}
	if m.AS.Lookup(hot).Tier != tier.FastTier {
		t.Fatal("Nimble never promoted the only hot block")
	}
	if m.AS.Stats().Demotions == 0 {
		t.Fatal("exchange did not demote")
	}
}

func TestHeMemClassificationAndOverAlloc(t *testing.T) {
	pol := NewHeMem()
	m := newM(t, pol, 4, 16)
	small := m.Reserve(16 * tier.BasePageSize)
	for i := uint64(0); i < small.Pages; i++ {
		m.Access(small.BaseVPN+i, true)
	}
	if pol.OverAllocBytes() != 16*tier.BasePageSize {
		t.Fatalf("over-alloc = %d", pol.OverAllocBytes())
	}
	if m.AS.Lookup(small.BaseVPN).Tier != tier.FastTier {
		t.Fatal("small allocation not placed in fast tier")
	}
	// Hot classification at the static threshold.
	r := m.Reserve(tier.HugePageSize)
	m.Access(r.BaseVPN, true)
	pg := m.AS.Lookup(r.BaseVPN)
	for pg.Count < hotThresh {
		m.Access(r.BaseVPN, false)
	}
	hot, _, _ := pol.HotSet()
	if hot < tier.HugePageSize {
		t.Fatalf("hot set %d missing the hot huge page", hot)
	}
}

func TestHeMemCoolingHalvesEverything(t *testing.T) {
	pol := NewHeMem()
	m := newM(t, pol, 4, 16)
	r := m.Reserve(2 * tier.HugePageSize)
	m.Access(r.BaseVPN, true)
	m.Access(r.BaseVPN+tier.SubPages, true)
	other := m.AS.Lookup(r.BaseVPN + tier.SubPages)
	for i := 0; i < 30; i++ {
		m.Access(r.BaseVPN+tier.SubPages, false)
	}
	otherCount := other.Count
	// Hammer one page long enough to cross the cooling threshold
	// several times (sampling period 20, threshold 18): every page in
	// the registry must have been halved along the way.
	for i := 0; i < 3000; i++ {
		m.Access(r.BaseVPN, false)
	}
	if other.Count >= otherCount {
		t.Fatalf("cooling did not halve other pages: %d -> %d", otherCount, other.Count)
	}
}

func TestSyncRateLimiter(t *testing.T) {
	pol := NewTPP()
	m := newM(t, pol, 4, 16)
	pol.Attach(m)
	// Consume the initial burst.
	granted := 0
	for i := 0; i < 100; i++ {
		if pol.allowSync(2 << 20) {
			granted++
		}
	}
	if granted == 0 || granted >= 100 {
		t.Fatalf("rate limiter granted %d of 100 immediate 2MB requests", granted)
	}
	// After virtual time passes, tokens refill.
	m.AdvanceBackground(1_000_000_000) // 1s -> 256MB of tokens
	refilled := 0
	for i := 0; i < 100; i++ {
		if pol.allowSync(2 << 20) {
			refilled++
		}
	}
	if refilled == 0 {
		t.Fatal("tokens did not refill")
	}
}

func TestRearmerUnitBudget(t *testing.T) {
	pol := NewAutoNUMA()
	m := newM(t, pol, 4, 16)
	r := m.Reserve(4 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	re := &Rearmer{RatePerSec: 512 * 1000} // 1000 base pages/ms
	re.Advance(&pol.Base, m.Now())
	n := re.Advance(&pol.Base, m.Now()+1_000_000)
	// 1ms at 512K pages/s = 512 units = exactly one huge page.
	if n != 1 {
		t.Fatalf("armed %d huge pages, want 1", n)
	}
}

func TestTraitsTableComplete(t *testing.T) {
	traits := AllTraits()
	if len(traits) != 10 {
		t.Fatalf("Table 1 rows = %d, want 10", len(traits))
	}
	var foundMemtis bool
	for _, tr := range traits {
		if tr.Name == "MEMTIS" {
			foundMemtis = true
			if !tr.SubpageTracking || tr.CriticalPath != "None" {
				t.Fatalf("MEMTIS row wrong: %+v", tr)
			}
		}
	}
	if !foundMemtis {
		t.Fatal("MEMTIS row missing")
	}
}

func TestMultiClockPromotesAtThresholdTwo(t *testing.T) {
	pol := NewMultiClock()
	m := newM(t, pol, 2, 16)
	r := m.Reserve(8 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	hot := r.BaseVPN + 7*tier.SubPages
	for i := 0; i < 400_000; i++ {
		m.Access(hot+uint64(i)%tier.SubPages, false)
	}
	if m.AS.Lookup(hot).Tier != tier.FastTier {
		t.Fatal("MULTI-CLOCK never promoted the hot block")
	}
	// The threshold is two scan generations: a block accessed exactly
	// once is not promoted.
	if m.AS.Stats().Promotions == 0 {
		t.Fatal("no promotions")
	}
}

func TestMultiClockAgesReferenceCounters(t *testing.T) {
	pol := NewMultiClock()
	m := newM(t, pol, 4, 16)
	r := m.Reserve(tier.HugePageSize)
	m.Access(r.BaseVPN, true)
	pg := m.AS.Lookup(r.BaseVPN)
	pg.P0 = 3
	// Idle scans decay the counter.
	for i := 0; i < 10; i++ {
		pol.Tick(m.Now() + uint64(i+1)*100_000_000)
	}
	if pg.P0 != 0 {
		t.Fatalf("reference counter not aged: %d", pg.P0)
	}
}

func TestHeMemAntiThrashFreeze(t *testing.T) {
	pol := NewHeMem()
	m := newM(t, pol, 2, 16)
	r := m.Reserve(10 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		m.Access(r.BaseVPN+i, true)
	}
	// Make everything hot: the classified hot set exceeds the fast
	// tier, so HeMem freezes migration.
	for i := 0; i < 300_000; i++ {
		m.Access(r.BaseVPN+uint64(i)*97%r.Pages, false)
	}
	hot, _, _ := pol.HotSet()
	if hot <= m.Fast.CapacityBytes() {
		t.Skipf("hot set %d did not exceed fast tier in this configuration", hot)
	}
	migBefore := m.AS.Stats().MigratedBytes
	for i := 0; i < 50_000; i++ {
		m.Access(r.BaseVPN+uint64(i)*97%r.Pages, false)
	}
	if m.AS.Stats().MigratedBytes > migBefore+(8<<20) {
		t.Fatal("HeMem migrated heavily despite oversized hot set")
	}
}

func TestBaseCompactDropsDeadPages(t *testing.T) {
	pol := NewStatic()
	m := newM(t, pol, 4, 16)
	r := m.Reserve(4 * tier.BasePageSize)
	m.Access(r.BaseVPN, true)
	pg := m.AS.Lookup(r.BaseVPN)
	pol.Register(pg)
	m.FreeRegion(r)
	pol.Compact()
	for _, p := range pol.Registry {
		if p == pg {
			t.Fatal("dead page survived Compact")
		}
	}
}
