package vm

import (
	"testing"

	"memtis/internal/tier"
)

// seenSlots counts the slots of [vpn, vpn+n) whose seen bit is set.
func (as *AddressSpace) seenSlots(vpn, n uint64) int {
	c := 0
	for i := vpn; i < vpn+n; i++ {
		if as.pt[i]&pteSeen != 0 {
			c++
		}
	}
	return c
}

// fastServes reports whether TouchFast serves a read and a write of vpn.
func fastServes(as *AddressSpace, vpn uint64) (read, write bool) {
	_, _, read = as.TouchFast(vpn, false)
	_, _, write = as.TouchFast(vpn, true)
	return read, write
}

func mustAudit(t *testing.T, as *AddressSpace, step string) {
	t.Helper()
	if err := as.Audit(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// TestSeenBitBasePage: a base mapping starts unseen, the access after
// its fault sets the bit, Watch clears it, and TouchFast serves the
// page only while it is seen.
func TestSeenBitBasePage(t *testing.T) {
	as := newAS(t, 4, 16, false)
	r := as.Reserve(8 * tier.BasePageSize)
	vpn := r.BaseVPN + 3
	pg := as.Touch(vpn, true).Page
	if as.pt[vpn]&pteSeen != 0 {
		t.Fatal("a new mapping is seen")
	}
	if rd, wr := fastServes(as, vpn); rd || wr {
		t.Fatalf("TouchFast served an unseen page (read %v, write %v)", rd, wr)
	}
	mustAudit(t, as, "fault")

	if res := as.Touch(vpn, false); res.Faulted || res.Page != pg {
		t.Fatalf("second touch: %+v", res)
	}
	if as.pt[vpn]&pteSeen == 0 {
		t.Fatal("Touch left the mapping unseen")
	}
	if rd, wr := fastServes(as, vpn); !rd || !wr {
		t.Fatalf("TouchFast declined a seen, written page (read %v, write %v)", rd, wr)
	}
	mustAudit(t, as, "touch")

	as.Watch(pg)
	if as.pt[vpn]&pteSeen != 0 {
		t.Fatal("Watch left the mapping seen")
	}
	if rd, wr := fastServes(as, vpn); rd || wr {
		t.Fatalf("TouchFast served a watched page (read %v, write %v)", rd, wr)
	}
	mustAudit(t, as, "watch")
}

// TestSeenBitHugePage: a huge mapping carries the bit in its block
// entry and all 512 slots; Touch and Watch move them together, and
// migration keeps the bit while changing the tier.
func TestSeenBitHugePage(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize)
	base, b := r.BaseVPN, r.BaseVPN/tier.SubPages
	hp := as.Touch(base+7, false).Page
	if !hp.IsHuge() || as.bt[b]&pteSeen != 0 || as.seenSlots(base, tier.SubPages) != 0 {
		t.Fatal("a new huge mapping is seen")
	}
	if rd, wr := fastServes(as, base+7); rd || wr {
		t.Fatalf("TouchFast served an unseen huge page (read %v, write %v)", rd, wr)
	}
	mustAudit(t, as, "fault")

	as.Touch(base+300, true)
	if as.bt[b]&pteSeen == 0 || as.seenSlots(base, tier.SubPages) != tier.SubPages {
		t.Fatal("Touch did not set the bit in the block entry and all 512 slots")
	}
	if rd, wr := fastServes(as, base+300); !rd || !wr {
		t.Fatalf("TouchFast declined a seen, written subpage (read %v, write %v)", rd, wr)
	}
	if _, wr := fastServes(as, base+301); wr {
		t.Fatal("TouchFast served a subpage's first write")
	}
	mustAudit(t, as, "touch")

	as.Watch(hp)
	if as.bt[b]&pteSeen != 0 || as.seenSlots(base, tier.SubPages) != 0 {
		t.Fatal("Watch did not clear the block entry and all 512 slots")
	}
	if rd, wr := fastServes(as, base+300); rd || wr {
		t.Fatalf("TouchFast served a watched huge page (read %v, write %v)", rd, wr)
	}
	mustAudit(t, as, "watch")

	if _, ok := as.Migrate(hp, tier.CapacityTier); !ok {
		t.Fatal("demotion failed")
	}
	if as.bt[b]&pteSeen != 0 || as.seenSlots(base, tier.SubPages) != 0 {
		t.Fatal("migration set the seen bit")
	}
	mustAudit(t, as, "migrate unseen")
	as.Touch(base, false)
	if _, ok := as.Migrate(hp, tier.FastTier); !ok {
		t.Fatal("promotion failed")
	}
	if as.bt[b]&pteSeen == 0 || as.seenSlots(base, tier.SubPages) != tier.SubPages {
		t.Fatal("migration cleared the seen bit")
	}
	if id, huge, ok := as.TouchFast(base+9, false); !ok || !huge || id != tier.FastTier {
		t.Fatalf("TouchFast after promotion = %v %v %v", id, huge, ok)
	}
	mustAudit(t, as, "migrate seen")

	// Audit rejects a slot that disagrees with its block entry.
	as.pt[base+42] &^= pteSeen
	if err := as.Audit(); err == nil {
		t.Fatal("audit missed a huge slot unseen under a seen block entry")
	}
}

// TestSeenBitSplitCollapse: split and collapse products are new
// mappings and start unseen, whatever their source was.
func TestSeenBitSplitCollapse(t *testing.T) {
	as := newAS(t, 4, 16, true)
	r := as.Reserve(tier.HugePageSize)
	base := r.BaseVPN
	for j := uint64(0); j < tier.SubPages; j++ {
		as.Touch(base+j, true)
	}
	hp := as.Touch(base, false).Page
	if as.seenSlots(base, tier.SubPages) != tier.SubPages {
		t.Fatal("huge page not seen before the split")
	}
	subs, _ := as.Split(hp, func(int) tier.ID { return tier.NoTier })
	if len(subs) != tier.SubPages || as.seenSlots(base, tier.SubPages) != 0 {
		t.Fatalf("split products seen (%d of %d subpages)", as.seenSlots(base, tier.SubPages), len(subs))
	}
	if rd, _ := fastServes(as, base+5); rd {
		t.Fatal("TouchFast served an unseen split product")
	}
	mustAudit(t, as, "split")

	for j := uint64(0); j < tier.SubPages; j++ {
		as.Touch(base+j, false)
	}
	if as.seenSlots(base, tier.SubPages) != tier.SubPages {
		t.Fatal("split products not seen after their accesses")
	}
	// Watching the dead huge page must not reach its successors' slots.
	as.Watch(hp)
	if as.seenSlots(base, tier.SubPages) != tier.SubPages {
		t.Fatal("Watch on a dead page cleared a live mapping's bit")
	}
	cp, _, ok := as.Collapse(base, tier.FastTier)
	if !ok {
		t.Fatal("collapse failed")
	}
	if as.bt[base/tier.SubPages]&pteSeen != 0 || as.seenSlots(base, tier.SubPages) != 0 {
		t.Fatal("collapse product seen")
	}
	mustAudit(t, as, "collapse")

	// A freed page is dead too: Watch leaves the trimmed table alone.
	as.Free(r)
	as.Watch(cp)
	mustAudit(t, as, "free")
}

// TestWatchReachesOwnerSpace: a policy may hold any tenant's space
// handle; Watch clears the bit in the space that maps the page.
func TestWatchReachesOwnerSpace(t *testing.T) {
	fast := tier.MustNew(tier.Config{Name: "fast", Kind: tier.DRAM, Bytes: 8 * tier.HugePageSize})
	capT := tier.MustNew(tier.Config{Name: "cap", Kind: tier.NVM, Bytes: 16 * tier.HugePageSize})
	a, b := NewAddressSpace(fast, capT, false), NewAddressSpace(fast, capT, false)
	b.Tenant = 1
	owners := []*AddressSpace{a, b}
	a.Owners, b.Owners = owners, owners
	ra, rb := a.Reserve(tier.BasePageSize), b.Reserve(tier.BasePageSize)
	pa := a.Touch(ra.BaseVPN, false).Page
	pb := b.Touch(rb.BaseVPN, false).Page
	a.Touch(ra.BaseVPN, false)
	b.Touch(rb.BaseVPN, false)

	a.Watch(pb)
	if b.pt[rb.BaseVPN]&pteSeen != 0 {
		t.Fatal("Watch through another space's handle missed the owner")
	}
	if a.pt[ra.BaseVPN]&pteSeen == 0 {
		t.Fatal("Watch cleared the handle space's own slot at the same vpn")
	}
	if err := AuditShared(fast, capT, owners); err != nil {
		t.Fatal(err)
	}
	b.Watch(pa)
	if a.pt[ra.BaseVPN]&pteSeen != 0 {
		t.Fatal("Watch through another space's handle missed the owner")
	}
}

// TestSeenBitDeepestTier: the 3-bit tier field round-trips the last
// position of a tier.MaxTiers-deep chain next to the seen bit.
func TestSeenBitDeepestTier(t *testing.T) {
	ts := make([]*tier.Tier, tier.MaxTiers)
	for i := range ts {
		ts[i] = tier.MustNew(tier.Config{Kind: tier.NVM, Bytes: 2 * tier.HugePageSize})
	}
	as := NewAddressSpaceTiers(ts, nil, true)
	last := as.LastTier()
	r := as.Reserve(tier.HugePageSize + tier.BasePageSize)
	hp := as.Touch(r.BaseVPN, true).Page
	bp := as.Touch(r.BaseVPN+tier.SubPages, true).Page
	for _, pg := range []*Page{hp, bp} {
		if _, ok := as.Migrate(pg, last); !ok {
			t.Fatalf("migration of page %d to tier %v failed", pg.VPN, last)
		}
		as.Touch(pg.VPN, false)
		if id, _, ok := as.TouchFast(pg.VPN, true); !ok || id != last {
			t.Fatalf("page %d: TouchFast = tier %v ok %v, want %v", pg.VPN, id, ok, last)
		}
		if res := as.Touch(pg.VPN, false); res.Tier != last || res.Page.Tier != last {
			t.Fatalf("page %d: Touch = tier %v, want %v", pg.VPN, res.Tier, last)
		}
		as.Watch(pg)
		if _, _, ok := as.TouchFast(pg.VPN, false); ok {
			t.Fatalf("page %d: TouchFast served a watched page", pg.VPN)
		}
	}
	mustAudit(t, as, "deepest tier")
}
