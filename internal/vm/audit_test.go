package vm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"memtis/internal/tier"
)

// auditTiers builds a fresh three-tier chain with the given sizes in
// 2MB blocks.
func auditTiers(blocks ...int) []*tier.Tier {
	ts := make([]*tier.Tier, len(blocks))
	for i, n := range blocks {
		ts[i] = tier.MustNew(tier.Config{Name: fmt.Sprintf("t%d", i), Kind: tier.NVM, Bytes: uint64(n) * tier.HugePageSize})
	}
	return ts
}

// auditFixture is a small clean space for the corruption table: h is a
// fast huge page at VPN 0 written only at subpage 0; b and c are fast
// base pages at VPNs 512 and 513; d is a base page on tier 2 at VPN
// 514; free is an unmapped slot of the base region above them.
type auditFixture struct {
	as         *AddressSpace
	h, b, c, d *Page
	free       uint64
}

func newAuditFixture(t *testing.T) auditFixture {
	t.Helper()
	as := NewAddressSpaceTiers(auditTiers(4, 4, 8), nil, true)
	rh := as.Reserve(tier.HugePageSize)
	rb := as.Reserve(8 * tier.BasePageSize)
	fx := auditFixture{as: as, free: rb.BaseVPN + 5}
	fx.h = as.Touch(rh.BaseVPN, true).Page
	fx.b = as.Touch(rb.BaseVPN, true).Page
	fx.c = as.Touch(rb.BaseVPN+1, true).Page
	fx.d = as.Touch(rb.BaseVPN+2, false).Page
	if _, st := as.MigrateTx(fx.d, 2); st != MigrateOK {
		t.Fatal("fixture migration failed")
	}
	as.Touch(fx.h.VPN+3, false)
	if !fx.h.IsHuge() || fx.h.VPN != 0 || fx.b.VPN != 512 || fx.c.VPN != 513 ||
		fx.h.Tier != tier.FastTier || fx.b.Tier != tier.FastTier || fx.c.Tier != tier.FastTier {
		t.Fatalf("fixture layout: h vpn %d huge=%v on %v, b vpn %d on %v, c vpn %d on %v",
			fx.h.VPN, fx.h.IsHuge(), fx.h.Tier, fx.b.VPN, fx.b.Tier, fx.c.VPN, fx.c.Tier)
	}
	if err := refAuditSpace(as); err != nil {
		t.Fatalf("clean fixture failed the reference audit: %v", err)
	}
	if err := as.Audit(); err != nil {
		t.Fatalf("clean fixture failed the audit: %v", err)
	}
	return fx
}

// sameAuditError requires the audit and its reference to reject the
// corrupted state with one identical message containing want.
func sameAuditError(t *testing.T, got, ref error, want string) {
	t.Helper()
	switch {
	case ref == nil:
		t.Fatalf("reference audit accepted the corruption (audit: %v)", got)
	case got == nil:
		t.Fatalf("audit accepted the corruption; reference: %v", ref)
	case got.Error() != ref.Error():
		t.Fatalf("audit and reference disagree:\n  audit:     %v\n  reference: %v", got, ref)
	case !strings.Contains(got.Error(), want):
		t.Fatalf("error %q does not report %q (an earlier check fired)", got, want)
	}
}

// TestAuditMatchesReferenceOnCorruption breaks each invariant of a
// clean space in turn and requires the audit to return exactly the error
// string of the map-based reference audit.
func TestAuditMatchesReferenceOnCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(fx auditFixture)
		want    string
	}{
		{"pte past the arena", func(fx auditFixture) {
			fx.as.pt[fx.free] = pte(fx.as.nAlloc + 1)
		}, "beyond the arena"},
		{"dead page still mapped", func(fx auditFixture) { fx.b.dead = true }, "still mapped"},
		{"mapping outside its page", func(fx auditFixture) {
			fx.as.pt[fx.free] = fx.as.pt[fx.b.VPN]
		}, "mapped out of range"},
		{"owner mismatch", func(fx auditFixture) { fx.b.Owner = 3 }, "owned by space 3 but mapped in space 0"},
		{"tier cache desync", func(fx auditFixture) {
			fx.as.pt[fx.b.VPN] = fx.as.pt[fx.b.VPN]&^pteTierMask | 2<<pteTierShift
		}, "caches tier tier2 but page"},
		{"huge bit desync", func(fx auditFixture) { fx.as.pt[fx.b.VPN] |= pteHuge }, "huge bit disagrees"},
		{"touched bit on a clean subpage", func(fx auditFixture) {
			fx.as.pt[fx.h.VPN+5] |= pteTouched
		}, "subpage 5 is clean"},
		{"page on a tier outside the chain", func(fx auditFixture) {
			fx.as.pt[fx.b.VPN] = fx.as.pt[fx.b.VPN]&^pteTierMask | 5<<pteTierShift
			fx.b.Tier = 5
		}, "on tier tier5"},
		{"huge page missing from the block table", func(fx auditFixture) {
			fx.as.bt[fx.h.VPN/tier.SubPages] = 0
		}, "missing or stale in the block table"},
		{"huge slot disagrees with its block entry", func(fx auditFixture) {
			fx.as.bt[fx.h.VPN/tier.SubPages] ^= pteSeen
		}, "disagrees with block table entry"},
		{"frame double-mapped by two base pages", func(fx auditFixture) {
			fx.c.Frame = fx.b.Frame
		}, "double-mapped by pages 512 and 513"},
		{"base frame inside a huge page's frames", func(fx auditFixture) {
			fx.b.Frame = fx.h.Frame + 7
		}, "double-mapped by pages 0 and 512"},
		{"huge page maps fewer slots than its units", func(fx auditFixture) {
			fx.as.pt[fx.h.VPN+7] = 0
		}, "maps 511 of its 512 slots"},
		// A slot that breaks a huge mapping's run of equal slots ends the
		// audit's run check and takes the per-slot checks.
		{"huge slot caches another tier", func(fx auditFixture) {
			fx.as.pt[fx.h.VPN+9] = fx.as.pt[fx.h.VPN+9]&^pteTierMask | 1<<pteTierShift
		}, "pte at vpn 9 caches tier capacity but page 0"},
		{"huge slot maps another page", func(fx auditFixture) {
			fx.as.pt[fx.h.VPN+9] = fx.as.pt[fx.b.VPN]
		}, "page 512 (units 1) mapped out of range at vpn 9"},
		{"huge slot unseen under a seen block", func(fx auditFixture) {
			fx.as.pt[fx.h.VPN+11] &^= pteSeen
		}, "pte at vpn 11 disagrees with block table entry 0"},
		{"stale block-table entry", func(fx auditFixture) {
			fx.as.bt[fx.b.VPN/tier.SubPages] = pteFor(fx.h)
		}, "is stale"},
		{"resident counter off", func(fx auditFixture) { fx.as.residentUnits++ }, "resident units"},
		{"fast counter off", func(fx auditFixture) { fx.as.fastUnits-- }, "fast units"},
		{"leaked frame", func(fx auditFixture) {
			if _, err := fx.as.Tier(2).AllocBase(); err != nil {
				panic(err)
			}
		}, "tier2 tier has 2 frames allocated but 1 mapped across 1 spaces"},
		{"lost frame", func(fx auditFixture) { fx.as.Tier(2).FreeBase(fx.d.Frame) },
			"tier2 tier has 0 frames allocated but 1 mapped across 1 spaces"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newAuditFixture(t)
			tc.corrupt(fx)
			sameAuditError(t, fx.as.Audit(), refAuditSpace(fx.as), tc.want)
		})
	}
}

// sharedSpaces returns two clean spaces sharing a three-tier chain,
// with their first base pages at different VPNs.
func sharedSpaces(t *testing.T) ([]*tier.Tier, []*AddressSpace, *Page, *Page) {
	t.Helper()
	ts := auditTiers(4, 4, 8)
	a := NewAddressSpaceTiers(ts, nil, true)
	b := a.AddSpace()
	spaces := a.Spaces()
	a.Touch(a.Reserve(tier.HugePageSize).BaseVPN, true)
	pa := a.Touch(a.Reserve(4*tier.BasePageSize).BaseVPN, true).Page
	pb := b.Touch(b.Reserve(4*tier.BasePageSize).BaseVPN+2, true).Page
	b.Touch(b.Reserve(tier.HugePageSize).BaseVPN, false)
	if err := refAuditSharedTiers(ts, spaces); err != nil {
		t.Fatalf("clean spaces failed the reference audit: %v", err)
	}
	if err := a.Audit(); err != nil {
		t.Fatalf("clean spaces failed the audit: %v", err)
	}
	return ts, spaces, pa, pb
}

// TestAuditSharedMatchesReference: the multi-space audit reports a
// corruption of a shared chain with the reference's exact error. A
// frame mapped by two spaces names both VPNs, though no owner table
// remembers the first.
func TestAuditSharedMatchesReference(t *testing.T) {
	t.Run("frame double-mapped across spaces", func(t *testing.T) {
		ts, spaces, pa, pb := sharedSpaces(t)
		if pa.VPN == pb.VPN || pa.Tier != pb.Tier {
			t.Fatalf("setup: pages at vpn %d/%d on %v/%v", pa.VPN, pb.VPN, pa.Tier, pb.Tier)
		}
		pb.Frame = pa.Frame
		want := fmt.Sprintf("space 1: vm: frame %v double-mapped by pages %d and %d",
			tier.PhysAddr{Tier: pa.Tier, Frame: pa.Frame}, pa.VPN, pb.VPN)
		sameAuditError(t, spaces[0].Audit(), refAuditSharedTiers(ts, spaces), want)
	})
	t.Run("huge page over an earlier base page's frame", func(t *testing.T) {
		ts, spaces, _, pb := sharedSpaces(t)
		hb := spaces[1].Lookup(tier.SubPages)
		if hb == nil || !hb.IsHuge() || hb.Tier != pb.Tier {
			t.Fatalf("setup: no huge page on %v at vpn %d of space 1", pb.Tier, tier.SubPages)
		}
		pb.Frame = hb.Frame + 3
		want := fmt.Sprintf("space 1: vm: frame %v double-mapped by pages %d and %d",
			tier.PhysAddr{Tier: hb.Tier, Frame: hb.Frame + 3}, pb.VPN, hb.VPN)
		sameAuditError(t, spaces[0].Audit(), refAuditSharedTiers(ts, spaces), want)
	})
	t.Run("owner mismatch in the second space", func(t *testing.T) {
		ts, spaces, _, pb := sharedSpaces(t)
		pb.Owner = 0
		sameAuditError(t, spaces[0].Audit(), refAuditSharedTiers(ts, spaces),
			"space 1: vm: page")
	})
	t.Run("leaked frame across spaces", func(t *testing.T) {
		ts, spaces, _, _ := sharedSpaces(t)
		if _, err := ts[1].AllocBase(); err != nil {
			t.Fatal(err)
		}
		sameAuditError(t, spaces[0].Audit(), refAuditSharedTiers(ts, spaces),
			"capacity tier has 1 frames allocated but 0 mapped across 2 spaces")
	})
}

// TestAuditEmptyRootSpace: with no page mapped, the audit still
// requires every tier of the chain to have no frame allocated.
func TestAuditEmptyRootSpace(t *testing.T) {
	as := NewAddressSpaceTiers(auditTiers(1, 1, 1), nil, true)
	if err := as.Audit(); err != nil {
		t.Fatalf("empty space: %v", err)
	}
	if _, err := as.Tier(2).AllocHuge(); err != nil {
		t.Fatal(err)
	}
	sameAuditError(t, as.Audit(), refAuditSpace(as),
		"tier2 tier has 512 frames allocated but 0 mapped across 1 spaces")
}

// TestAuditRejectsFrameBeyondCapacity pins the one check the bitmap
// audit adds: a page whose frames run past the end of its tier. The
// map-based reference accepts such a page.
func TestAuditRejectsFrameBeyondCapacity(t *testing.T) {
	fx := newAuditFixture(t)
	capF := fx.as.Fast.CapacityFrames()
	fx.h.Frame = tier.Frame(capF - 256)
	if err := refAuditSpace(fx.as); err != nil {
		t.Fatalf("reference audit now rejects the state: %v", err)
	}
	want := fmt.Sprintf("space 0: vm: page %d maps frames %d..%d beyond the fast tier's %d", fx.h.VPN, capF-256, capF+255, capF)
	if err := fx.as.Audit(); err == nil || err.Error() != want {
		t.Fatalf("audit = %v, want %q", err, want)
	}
}

// TestAuditMatchesReferenceOnChurn drives one space, then two spaces
// sharing a chain, through seeded churn on a three-tier chain: faults,
// migrations (a third of them aborted by the fault plan, some through
// the other space's handle), splits, collapses and frees. Both audits
// must pass after every step.
func TestAuditMatchesReferenceOnChurn(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("spaces=%d", n), func(t *testing.T) {
			ts := auditTiers(8, 8, 32)
			root := NewAddressSpaceTiers(ts, nil, true)
			root.Faults = tier.NewFaultPlan(tier.FaultConfig{Seed: 3, MigrateFailPpm: 300_000})
			for len(root.Spaces()) < n {
				root.AddSpace()
			}
			spaces := root.Spaces()
			frees := churn(t, rand.New(rand.NewSource(int64(n))), ts, spaces, func(step int) {
				if err := refAuditSharedTiers(ts, spaces); err != nil {
					t.Fatalf("step %d: reference audit: %v", step, err)
				}
				if err := root.Audit(); err != nil {
					t.Fatalf("step %d: audit: %v", step, err)
				}
			})
			st := root.Stats()
			if st.Splits == 0 || st.Collapses == 0 || st.MigrateAborts == 0 || frees == 0 {
				t.Fatalf("churn missed an operation: %d splits, %d collapses, %d aborts, %d frees",
					st.Splits, st.Collapses, st.MigrateAborts, frees)
			}
		})
	}
}

// churn runs 300 random operations over the spaces, calling check
// after each, and returns how many regions it freed.
func churn(t *testing.T, rng *rand.Rand, ts []*tier.Tier, spaces []*AddressSpace, check func(step int)) (frees int) {
	t.Helper()
	regions := make([][]Region, len(spaces))
	randomPage := func(k int) *Page {
		r := regions[k][rng.Intn(len(regions[k]))]
		return spaces[k].Lookup(r.BaseVPN + uint64(rng.Intn(int(r.Pages))))
	}
	for step := 0; step < 300; step++ {
		k := rng.Intn(len(spaces))
		as := spaces[k]
		op := rng.Intn(10)
		if len(regions[k]) == 0 {
			op = 0
		}
		switch {
		case op < 3 && len(regions[k]) < 6:
			// One THP block (fully written half the time, so a later
			// split leaves 512 base pages to collapse) plus a base tail.
			r := as.Reserve(tier.HugePageSize + uint64(rng.Intn(16))*tier.BasePageSize)
			regions[k] = append(regions[k], r)
			full := rng.Intn(2) == 0
			for i := uint64(0); i < r.Pages; i++ {
				if full || i >= tier.SubPages || rng.Intn(8) == 0 {
					as.Touch(r.BaseVPN+i, true)
				}
			}
		case op < 6:
			if pg := randomPage(k); pg != nil {
				spaces[rng.Intn(len(spaces))].MigrateTx(pg, tier.ID(rng.Intn(len(ts))))
			}
		case op < 8:
			r := regions[k][rng.Intn(len(regions[k]))]
			if pg := as.Lookup(r.BaseVPN); pg != nil && pg.IsHuge() {
				as.Split(pg, func(int) tier.ID { return tier.ID(rng.Intn(len(ts)+1)) - 1 })
			} else {
				as.Collapse(r.BaseVPN, tier.ID(rng.Intn(len(ts))))
			}
		default:
			i := rng.Intn(len(regions[k]))
			as.Free(regions[k][i])
			regions[k] = append(regions[k][:i], regions[k][i+1:]...)
			frees++
		}
		check(step)
	}
	return frees
}

// TestAuditAllocsFlat is the allocation tripwire: the audit makes the same
// number of allocations on a space of about 16K base pages as on a
// 64-page space over the same tiers. An owner or slot table that grows
// per mapped page fails it.
func TestAuditAllocsFlat(t *testing.T) {
	allocs := func(pages uint64) float64 {
		as := newAS(t, 16, 32, false)
		r := as.Reserve(pages * tier.BasePageSize)
		for vpn := r.BaseVPN; vpn < r.BaseVPN+r.Pages; vpn++ {
			as.Touch(vpn, true)
		}
		return testing.AllocsPerRun(5, func() {
			if err := as.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(16<<10); small != large {
		t.Fatalf("the audit allocates %.0f objects on 64 pages but %.0f on 16K pages", small, large)
	}
}
