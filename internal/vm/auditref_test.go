package vm

import (
	"fmt"

	"memtis/internal/tier"
)

// This file keeps the map-based audit the package used before the
// bitmap one, verbatim apart from the names, as the naive reference
// the differential tests in audit_test.go hold Memory.Audit against:
// a frame-owner map and a per-page slot map, rebuilt on every call,
// and a slot-by-slot walk of every huge mapping.

// refAuditSpace is the reference as.Audit(): every space of as's
// memory over its chain.
func refAuditSpace(as *AddressSpace) error { return refAuditSharedTiers(as.tiers, as.Spaces()) }

// refAuditSharedTiers is the reference audit of the given spaces
// sharing the given chain.
func refAuditSharedTiers(tiers []*tier.Tier, spaces []*AddressSpace) error {
	owner := make(map[tier.PhysAddr]uint64)
	units := make([]uint64, len(tiers))
	for _, as := range spaces {
		us, err := as.refAuditMapped(owner)
		if err != nil {
			return fmt.Errorf("space %d: %w", as.Tenant, err)
		}
		if len(us) != len(tiers) {
			return fmt.Errorf("space %d: %d tiers in chain, audit expects %d", as.Tenant, len(us), len(tiers))
		}
		for i, u := range us {
			units[i] += u
		}
	}
	for id, t := range tiers {
		if got := t.UsedFrames(); got != units[id] {
			return fmt.Errorf("vm: %s tier has %d frames allocated but %d mapped across %d spaces",
				tier.ID(id), got, units[id], len(spaces))
		}
	}
	return nil
}

// refAuditMapped is the reference auditMapped.
func (as *AddressSpace) refAuditMapped(owner map[tier.PhysAddr]uint64) ([]uint64, error) {
	units := make([]uint64, len(as.tiers))
	mapped := make(map[*Page]uint64)
	for vpn, e := range as.pt {
		if e == 0 {
			continue
		}
		if idx := uint32(e & pteIdxMask); idx > as.nAlloc {
			return nil, fmt.Errorf("vm: pte at vpn %d indexes record %d beyond the arena (%d allocated)",
				vpn, idx-1, as.nAlloc)
		}
		pg := as.pageAt(e)
		if pg.dead {
			return nil, fmt.Errorf("vm: dead page %d still mapped at vpn %d", pg.VPN, vpn)
		}
		off := uint64(vpn) - pg.VPN
		if off >= pg.Units() {
			return nil, fmt.Errorf("vm: page %d (units %d) mapped out of range at vpn %d",
				pg.VPN, pg.Units(), vpn)
		}
		if pg.Owner != as.Tenant {
			return nil, fmt.Errorf("vm: page %d owned by space %d but mapped in space %d",
				pg.VPN, pg.Owner, as.Tenant)
		}
		// The packed entry's cached bits must agree with the record —
		// a desync here means a tier-changing path forgot setTierPTE
		// (the access hot path would charge the wrong tier's latency).
		if got := tier.ID(e >> pteTierShift); got != pg.Tier {
			return nil, fmt.Errorf("vm: pte at vpn %d caches tier %v but page %d is on %v",
				vpn, got, pg.VPN, pg.Tier)
		}
		if (e&pteHuge != 0) != pg.IsHuge() {
			return nil, fmt.Errorf("vm: pte at vpn %d huge bit disagrees with page %d", vpn, pg.VPN)
		}
		if e&pteTouched != 0 && !pg.Touched(int(off)) {
			return nil, fmt.Errorf("vm: pte at vpn %d touched bit set but page %d subpage %d is clean",
				vpn, pg.VPN, off)
		}
		if mapped[pg] == 0 {
			// First sighting: account frames and check uniqueness.
			if pg.Tier < 0 || int(pg.Tier) >= len(as.tiers) {
				return nil, fmt.Errorf("vm: page %d on tier %v", pg.VPN, pg.Tier)
			}
			if pg.IsHuge() {
				b := pg.VPN / tier.SubPages
				if b >= uint64(len(as.bt)) || as.bt[b]&^pteSeen != pteFor(pg) {
					return nil, fmt.Errorf("vm: huge page %d missing or stale in the block table", pg.VPN)
				}
			}
			units[pg.Tier] += pg.Units()
			for u := uint64(0); u < pg.Units(); u++ {
				pa := tier.PhysAddr{Tier: pg.Tier, Frame: pg.Frame + tier.Frame(u)}
				if prev, dup := owner[pa]; dup {
					return nil, fmt.Errorf("vm: frame %v double-mapped by pages %d and %d",
						pa, prev, pg.VPN)
				}
				owner[pa] = pg.VPN
			}
		}
		mapped[pg]++
		// A huge mapping's slots mirror its block entry's tier and seen
		// bit; TouchFast reads either.
		if pg.IsHuge() && (e^as.bt[vpn/tier.SubPages])&(pteTierMask|pteSeen) != 0 {
			return nil, fmt.Errorf("vm: pte at vpn %d disagrees with block table entry %d on tier or seen",
				vpn, vpn/tier.SubPages)
		}
	}
	for pg, n := range mapped {
		if n != pg.Units() {
			return nil, fmt.Errorf("vm: page %d maps %d of its %d slots", pg.VPN, n, pg.Units())
		}
	}
	// Reverse direction: every non-zero block-table entry must describe
	// a live huge mapping the pt walk actually saw (a stale entry would
	// serve reads for a split or freed block).
	for b, e := range as.bt {
		if e == 0 {
			continue
		}
		base := uint64(b) * tier.SubPages
		if e&pteHuge == 0 || base >= uint64(len(as.pt)) || as.pt[base]&^pteTouched != e {
			return nil, fmt.Errorf("vm: block table entry %d is stale (pte %#x)", b, e)
		}
	}
	var total uint64
	for _, u := range units {
		total += u
	}
	if total != as.residentUnits {
		return nil, fmt.Errorf("vm: space %d counts %d resident units but %d are mapped",
			as.Tenant, as.residentUnits, total)
	}
	if units[tier.FastTier] != as.fastUnits {
		return nil, fmt.Errorf("vm: space %d counts %d fast units but %d are mapped fast",
			as.Tenant, as.fastUnits, units[tier.FastTier])
	}
	return units, nil
}
