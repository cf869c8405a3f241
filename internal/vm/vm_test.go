package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memtis/internal/tier"
)

func newAS(t *testing.T, fastBlocks, capBlocks int, thp bool) *AddressSpace {
	if t != nil {
		t.Helper()
	}
	fast := tier.MustNew(tier.Config{Name: "fast", Kind: tier.DRAM, Bytes: uint64(fastBlocks) * tier.HugePageSize})
	capT := tier.MustNew(tier.Config{Name: "cap", Kind: tier.NVM, Bytes: uint64(capBlocks) * tier.HugePageSize})
	return NewAddressSpaceTiers([]*tier.Tier{fast, capT}, nil, thp)
}

func TestReserveAligns(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r1 := as.Reserve(3 * tier.BasePageSize)
	r2 := as.Reserve(tier.HugePageSize)
	if r1.BaseVPN%tier.SubPages != 0 || r2.BaseVPN%tier.SubPages != 0 {
		t.Fatal("reservations not 2MB aligned")
	}
	if r2.BaseVPN < r1.BaseVPN+r1.Pages {
		t.Fatal("overlapping reservations")
	}
	if r1.Bytes() != 3*tier.BasePageSize {
		t.Fatalf("Bytes = %d", r1.Bytes())
	}
}

func TestTouchFaultsHugeWhenEligible(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize)
	res := as.Touch(r.BaseVPN+7, false)
	if !res.Faulted || res.FaultNS != HugeFaultNS {
		t.Fatalf("expected huge fault, got %+v", res)
	}
	if !res.Page.IsHuge() || res.SubIdx != 7 {
		t.Fatalf("expected huge page subidx 7, got huge=%v sub=%d", res.Page.IsHuge(), res.SubIdx)
	}
	if res.Tier != tier.FastTier {
		t.Fatalf("default placement should be fast-first, got %v", res.Tier)
	}
	// Second touch: no fault.
	res2 := as.Touch(r.BaseVPN, false)
	if res2.Faulted || res2.Page != res.Page {
		t.Fatal("second touch refaulted or remapped")
	}
}

func TestSmallReservationFaultsBasePages(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(128 * tier.BasePageSize) // 512KB: not huge-eligible
	res := as.Touch(r.BaseVPN, true)
	if res.Page.IsHuge() {
		t.Fatal("sub-2MB reservation must not fault in as a huge page")
	}
	if res.FaultNS != BaseFaultNS {
		t.Fatalf("fault cost %d, want %d", res.FaultNS, BaseFaultNS)
	}
	// The 2MB block around the small region must never map huge even
	// though the table slots beyond the region are nil.
	if as.RSSFrames() != 1 {
		t.Fatalf("RSS = %d frames, want 1", as.RSSFrames())
	}
}

func TestTouchWithoutTHP(t *testing.T) {
	as := newAS(t, 4, 16, false)
	r := as.Reserve(tier.HugePageSize)
	res := as.Touch(r.BaseVPN, false)
	if res.Page.IsHuge() {
		t.Fatal("THP disabled but huge page mapped")
	}
}

func TestTouchUnreservedPanics(t *testing.T) {
	as := newAS(t, 4, 16, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	as.Touch(12345, false)
}

func TestWriteMarksTouched(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize)
	as.Touch(r.BaseVPN+3, true)
	as.Touch(r.BaseVPN+9, false) // read does not mark
	pg := as.Lookup(r.BaseVPN)
	if !pg.Touched(3) || pg.Touched(9) {
		t.Fatalf("touched bits wrong: %v %v", pg.Touched(3), pg.Touched(9))
	}
	if pg.TouchedCount() != 1 {
		t.Fatalf("TouchedCount = %d", pg.TouchedCount())
	}
}

func TestHotnessScale(t *testing.T) {
	hp := &Page{Kind: HugePage, Count: 7}
	bp := &Page{Kind: BasePage, Count: 7}
	if hp.Hotness() != 7 {
		t.Fatalf("huge hotness = %d", hp.Hotness())
	}
	if bp.Hotness() != 7*tier.SubPages {
		t.Fatalf("base hotness = %d", bp.Hotness())
	}
	if hp.Units() != tier.SubPages || bp.Units() != 1 {
		t.Fatal("units")
	}
}

func TestMigrate(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize)
	pg := as.Touch(r.BaseVPN, true).Page
	if !as.CanMigrate(pg, tier.CapacityTier) {
		t.Fatal("CanMigrate false with free capacity")
	}
	ns, status := as.MigrateTx(pg, tier.CapacityTier)
	if status != MigrateOK || ns != MigrateHugeNS+ShootdownNS {
		t.Fatalf("migrate: %v ns=%d", status, ns)
	}
	if pg.Tier != tier.CapacityTier {
		t.Fatal("tier not updated")
	}
	st := as.Stats()
	if st.MigrationsHuge != 1 || st.Demotions != tier.SubPages || st.MigratedBytes != tier.HugePageSize {
		t.Fatalf("stats: %+v", st)
	}
	if as.Fast.UsedFrames() != 0 || as.Cap.UsedFrames() != tier.SubPages {
		t.Fatal("frames not moved")
	}
	// Migrating to the same tier is rejected.
	if _, st := as.MigrateTx(pg, tier.CapacityTier); st == MigrateOK {
		t.Fatal("same-tier migrate succeeded")
	}
}

func TestMigrateFailsWhenFull(t *testing.T) {
	as := newAS(t, 1, 16, true)
	r := as.Reserve(2 * tier.HugePageSize)
	pg1 := as.Touch(r.BaseVPN, true).Page               // fills fast
	pg2 := as.Touch(r.BaseVPN+tier.SubPages, true).Page // overflows to capacity
	if pg1.Tier != tier.FastTier || pg2.Tier != tier.CapacityTier {
		t.Fatalf("placement: %v %v", pg1.Tier, pg2.Tier)
	}
	if _, st := as.MigrateTx(pg2, tier.FastTier); st == MigrateOK {
		t.Fatal("migration into full tier succeeded")
	}
}

func TestSplitReclaimsUntouchedAndPreservesCounts(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize)
	pg := as.Touch(r.BaseVPN, true).Page
	// Touch (write) the first 100 subpages only.
	for i := uint64(1); i < 100; i++ {
		as.Touch(r.BaseVPN+i, true)
	}
	pg.EnsureSubCount()
	pg.SubCount[5] = 17
	pg.Count = 40

	rssBefore := as.RSSFrames()
	subs, ns := as.Split(pg, func(j int) tier.ID {
		if j == 5 {
			return tier.FastTier
		}
		return tier.NoTier
	})
	if ns == 0 {
		t.Fatal("split cost zero")
	}
	if len(subs) != 100 {
		t.Fatalf("survivors = %d, want 100", len(subs))
	}
	if !pg.Dead() {
		t.Fatal("split page not dead")
	}
	st := as.Stats()
	if st.Splits != 1 || st.ReclaimedFrames != tier.SubPages-100 {
		t.Fatalf("stats: %+v", st)
	}
	if as.RSSFrames() != rssBefore-(tier.SubPages-100) {
		t.Fatalf("RSS after split = %d", as.RSSFrames())
	}
	// Counts carried to subpages.
	found := false
	for _, sp := range subs {
		if sp.VPN == r.BaseVPN+5 {
			found = true
			if sp.Count != 17 {
				t.Fatalf("subpage count = %d, want 17", sp.Count)
			}
			if sp.Tier != tier.FastTier {
				t.Fatal("dest callback ignored")
			}
		}
		if as.Lookup(sp.VPN) != sp {
			t.Fatal("table entry mismatch after split")
		}
	}
	if !found {
		t.Fatal("subpage 5 missing")
	}
	// Reclaimed subpages are unmapped; touching them refaults.
	res := as.Touch(r.BaseVPN+200, false)
	if !res.Faulted || res.Page.IsHuge() {
		t.Fatal("reclaimed subpage should refault as base page")
	}
}

func TestCollapse(t *testing.T) {
	as := newAS(t, 4, 16, false) // base pages only
	r := as.Reserve(tier.HugePageSize)
	for i := uint64(0); i < tier.SubPages; i++ {
		pg := as.Touch(r.BaseVPN+i, true).Page
		pg.Count = 3
	}
	hp, ns, ok := as.Collapse(r.BaseVPN, tier.FastTier)
	if !ok || ns == 0 {
		t.Fatalf("collapse failed: %v %d", ok, ns)
	}
	if !hp.IsHuge() || hp.Tier != tier.FastTier {
		t.Fatal("collapse result wrong")
	}
	if hp.Count != 3*tier.SubPages {
		t.Fatalf("aggregated count = %d", hp.Count)
	}
	if hp.SubCount[100] != 3 {
		t.Fatal("subcounts not carried")
	}
	if as.Lookup(r.BaseVPN+511) != hp {
		t.Fatal("table not updated")
	}
	if as.Stats().Collapses != 1 {
		t.Fatal("collapse stat")
	}
}

func TestCollapseRejectsPartial(t *testing.T) {
	as := newAS(t, 4, 16, false)
	r := as.Reserve(tier.HugePageSize)
	as.Touch(r.BaseVPN, true)
	if _, _, ok := as.Collapse(r.BaseVPN, tier.FastTier); ok {
		t.Fatal("collapse of partially mapped range succeeded")
	}
	if _, _, ok := as.Collapse(r.BaseVPN+1, tier.FastTier); ok {
		t.Fatal("collapse of unaligned range succeeded")
	}
}

func TestFreeReleasesFrames(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(2 * tier.HugePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		as.Touch(r.BaseVPN+i, true)
	}
	if as.RSSFrames() == 0 {
		t.Fatal("nothing mapped")
	}
	var released int
	as.OnUnmap = func(p *Page) { released++ }
	as.Free(r)
	if as.RSSFrames() != 0 {
		t.Fatalf("RSS after free = %d", as.RSSFrames())
	}
	if released != 2 {
		t.Fatalf("OnUnmap called %d times, want 2", released)
	}
	if as.Lookup(r.BaseVPN) != nil {
		t.Fatal("table entry survived free")
	}
	if as.LivePages() != 0 {
		t.Fatalf("LivePages = %d", as.LivePages())
	}
}

func TestForEachPageVisitsOnce(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize + 4*tier.BasePageSize)
	for i := uint64(0); i < r.Pages; i++ {
		as.Touch(r.BaseVPN+i, true)
	}
	seen := map[*Page]int{}
	as.ForEachPage(func(p *Page) { seen[p]++ })
	if len(seen) != as.LivePages() {
		t.Fatalf("visited %d pages, live %d", len(seen), as.LivePages())
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("page %d visited %d times", p.VPN, n)
		}
	}
}

// TestQuickVMConsistency drives random touches, migrations, splits and
// frees, checking RSS/tier accounting consistency after every step.
func TestQuickVMConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := newAS(nil, 3, 12, true)
		var regions []Region
		for i := 0; i < 3; i++ {
			regions = append(regions, as.Reserve(uint64(1+rng.Intn(3))*tier.HugePageSize))
		}
		check := func() bool {
			var frames uint64
			as.ForEachPage(func(p *Page) { frames += p.Units() })
			return frames == as.RSSFrames()
		}
		for i := 0; i < 300; i++ {
			r := regions[rng.Intn(len(regions))]
			if r.Pages == 0 {
				continue
			}
			switch rng.Intn(10) {
			case 8:
				var pages []*Page
				as.ForEachPage(func(p *Page) { pages = append(pages, p) })
				if len(pages) > 0 {
					pg := pages[rng.Intn(len(pages))]
					dst := tier.FastTier
					if pg.Tier == tier.FastTier {
						dst = tier.CapacityTier
					}
					as.MigrateTx(pg, dst)
				}
			case 9:
				var huges []*Page
				as.ForEachPage(func(p *Page) {
					if p.IsHuge() {
						huges = append(huges, p)
					}
				})
				if len(huges) > 0 {
					as.Split(huges[rng.Intn(len(huges))], func(int) tier.ID { return tier.NoTier })
				}
			default:
				as.Touch(r.BaseVPN+rng.Uint64()%r.Pages, rng.Intn(2) == 0)
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHugeFaultFallsBackAcrossTiers(t *testing.T) {
	// Fast tier holds one block; the second huge fault must fall back
	// to the capacity tier even though the placer asked for fast.
	as := newAS(t, 1, 4, true)
	r := as.Reserve(2 * tier.HugePageSize)
	p1 := as.Touch(r.BaseVPN, true).Page
	p2 := as.Touch(r.BaseVPN+tier.SubPages, true).Page
	if p1.Tier != tier.FastTier || p2.Tier != tier.CapacityTier {
		t.Fatalf("fallback broken: %v %v", p1.Tier, p2.Tier)
	}
}

func TestBaseFaultDegradesWhenNoHugeFrame(t *testing.T) {
	// Both tiers exist but the fast tier has only loose base frames:
	// a huge-eligible fault in fast degrades gracefully.
	as := newAS(t, 1, 4, true)
	// Break the fast tier's only block by allocating one base page.
	small := as.Reserve(4 * tier.BasePageSize)
	as.Touch(small.BaseVPN, true)
	r := as.Reserve(tier.HugePageSize)
	pg := as.Touch(r.BaseVPN, true).Page
	// Fast has no huge frame; capacity does: the page must be huge on
	// capacity rather than base on fast.
	if !pg.IsHuge() || pg.Tier != tier.CapacityTier {
		t.Fatalf("degradation wrong: huge=%v tier=%v", pg.IsHuge(), pg.Tier)
	}
}

func TestHugeFaultWithoutHugeFrameMapsTheFaultingVPN(t *testing.T) {
	// No tier has a whole free block: a huge-eligible fault degrades
	// to a base page at the touched vpn, not at the block's base.
	as := newAS(t, 1, 1, true)
	as.Touch(as.Reserve(tier.BasePageSize).BaseVPN, true)
	stray, err := as.Cap.AllocBase()
	if err != nil {
		t.Fatal(err)
	}
	r := as.Reserve(tier.HugePageSize)
	res := as.Touch(r.BaseVPN+7, true)
	if res.Page.IsHuge() || res.Page.VPN != r.BaseVPN+7 || as.Lookup(r.BaseVPN+7) != res.Page {
		t.Fatalf("fault at vpn %d mapped page %d (huge %v)", r.BaseVPN+7, res.Page.VPN, res.Page.IsHuge())
	}
	if as.Lookup(r.BaseVPN) != nil {
		t.Fatal("fault mapped the block base as well")
	}
	if res2 := as.Touch(r.BaseVPN+7, false); res2.Faulted || res2.Page != res.Page {
		t.Fatalf("second touch: %+v", res2)
	}
	as.Cap.FreeBase(stray)
	if err := as.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeepsInPlaceSubpagesWithoutCopy(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize)
	for i := uint64(0); i < tier.SubPages; i++ {
		as.Touch(r.BaseVPN+i, true)
	}
	pg := as.Lookup(r.BaseVPN)
	frame := pg.Frame
	subs, _ := as.Split(pg, func(int) tier.ID { return tier.NoTier })
	if len(subs) != tier.SubPages {
		t.Fatalf("survivors: %d", len(subs))
	}
	// In-place subpages keep their physical frames.
	for j, sp := range subs {
		if sp.Frame != frame+tier.Frame(j) {
			t.Fatalf("subpage %d moved: frame %d", j, sp.Frame)
		}
	}
	if as.Stats().MigratedBytes != 0 {
		t.Fatal("in-place split migrated data")
	}
}

func TestCollapseFailsWhenTierFull(t *testing.T) {
	as := newAS(t, 1, 2, false)
	r := as.Reserve(tier.HugePageSize)
	for i := uint64(0); i < tier.SubPages; i++ {
		as.Touch(r.BaseVPN+i, true) // fills the fast tier with base frames
	}
	// The fast tier has no free huge frame (all frames hold the base
	// pages being collapsed), so collapse must fail there...
	if _, _, ok := as.Collapse(r.BaseVPN, tier.FastTier); ok {
		t.Fatal("collapse into full tier succeeded")
	}
	// ...but succeed into the capacity tier.
	if _, _, ok := as.Collapse(r.BaseVPN, tier.CapacityTier); !ok {
		t.Fatal("collapse into free tier failed")
	}
}

func TestRSSAccounting(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize + 3*tier.BasePageSize)
	as.Touch(r.BaseVPN, true)
	if as.RSSBytes() != tier.HugePageSize {
		t.Fatalf("RSS = %d", as.RSSBytes())
	}
	as.Touch(r.BaseVPN+tier.SubPages, true) // tail base page
	if as.RSSFrames() != tier.SubPages+1 {
		t.Fatalf("RSS frames = %d", as.RSSFrames())
	}
}

// TestArenaLoc pins the graduated-chunk geometry: the index→(chunk,
// slot) map must be a bijection onto in-bounds slots in append order —
// slot 0 of a new chunk follows the last slot of the previous one, and
// chunk sizes double from rampLen up to the fixed chunkLen regime.
func TestArenaLoc(t *testing.T) {
	prevC, prevS := -1, uint32(0)
	for i := uint32(0); i < rampTotal+3*chunkLen; i++ {
		c, s := arenaLoc(i)
		if s >= uint32(chunkSize(c)) {
			t.Fatalf("index %d: slot %d out of bounds for chunk %d (size %d)", i, s, c, chunkSize(c))
		}
		switch {
		case i == 0:
			if c != 0 || s != 0 {
				t.Fatalf("index 0 maps to (%d,%d)", c, s)
			}
		case c == prevC:
			if s != prevS+1 {
				t.Fatalf("index %d: slot %d does not follow %d in chunk %d", i, s, prevS, c)
			}
		case c == prevC+1:
			if s != 0 {
				t.Fatalf("index %d: new chunk %d starts at slot %d", i, c, s)
			}
			if prevS != uint32(chunkSize(prevC))-1 {
				t.Fatalf("index %d: chunk %d abandoned at slot %d of %d", i, prevC, prevS, chunkSize(prevC))
			}
		default:
			t.Fatalf("index %d: chunk jumped %d -> %d", i, prevC, c)
		}
		prevC, prevS = c, s
	}
	if prevC != rampChunks+2 {
		t.Fatalf("walk ended in chunk %d, want %d", prevC, rampChunks+2)
	}
}

// TestTierDepthBound pins the one depth bound: a chain of tier.MaxTiers
// tiers builds, one deeper is rejected.
func TestTierDepthBound(t *testing.T) {
	chain := func(n int) []*tier.Tier {
		ts := make([]*tier.Tier, n)
		for i := range ts {
			ts[i] = tier.MustNew(tier.Config{Kind: tier.NVM, Bytes: tier.HugePageSize})
		}
		return ts
	}
	if as := NewAddressSpaceTiers(chain(tier.MaxTiers), nil, true); as.Depth() != tier.MaxTiers {
		t.Fatalf("depth %d chain has %d tiers", tier.MaxTiers, as.Depth())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewAddressSpaceTiers accepted a depth %d chain", tier.MaxTiers+1)
		}
	}()
	NewAddressSpaceTiers(chain(tier.MaxTiers+1), nil, true)
}
