package vm

import (
	"testing"

	"memtis/internal/obs"
	"memtis/internal/tier"
)

// alwaysFail builds a plan whose every copy faults.
func alwaysFail() *tier.FaultPlan {
	return tier.NewFaultPlan(tier.FaultConfig{Seed: 1, MigrateFailPpm: 1_000_000})
}

func TestMigrateTxAbortRollsBack(t *testing.T) {
	as := newAS(t, 4, 16, true)
	ring := obs.NewRing(0)
	as.Trace = obs.NewTracer(ring)
	as.Faults = alwaysFail()

	r := as.Reserve(tier.HugePageSize)
	pg := as.Touch(r.BaseVPN, true).Page
	if pg.Tier != tier.FastTier {
		t.Fatalf("page faulted onto %v", pg.Tier)
	}
	frame := pg.Frame
	capUsed := as.Cap.UsedFrames()

	ns, st := as.MigrateTx(pg, tier.CapacityTier)
	if st != MigrateAborted {
		t.Fatalf("status = %v, want aborted", st)
	}
	if ns != MigrateHugeNS {
		t.Fatalf("abort charged %d ns, want the wasted copy %d", ns, uint64(MigrateHugeNS))
	}
	// Rollback: source mapping untouched, reservation returned.
	if pg.Tier != tier.FastTier || pg.Frame != frame {
		t.Fatalf("aborted page moved: tier=%v frame=%d", pg.Tier, pg.Frame)
	}
	if got := as.Cap.UsedFrames(); got != capUsed {
		t.Fatalf("capacity tier leaked %d frames across the abort", got-capUsed)
	}
	st2 := as.Stats()
	if st2.MigrateAborts != 1 || st2.AbortNS != ns {
		t.Fatalf("abort stats = %d/%d", st2.MigrateAborts, st2.AbortNS)
	}
	if st2.MigrationsHuge != 0 || st2.Shootdowns != 0 {
		t.Fatal("abort counted as a completed migration")
	}
	if n := ring.CountByKind()[obs.EvMigrateAbort]; n != 1 {
		t.Fatalf("migrate_abort events = %d, want 1", n)
	}
	if err := as.Audit(); err != nil {
		t.Fatalf("audit after aborts: %v", err)
	}
}

func TestMigrateTxNoSpaceIsFree(t *testing.T) {
	as := newAS(t, 1, 1, true)
	as.Faults = alwaysFail()
	r := as.Reserve(tier.HugePageSize)
	pg := as.Touch(r.BaseVPN, true).Page
	// Fill the other tier completely so reserve must fail.
	other := tier.CapacityTier
	if pg.Tier == tier.CapacityTier {
		other = tier.FastTier
	}
	if _, err := as.Tier(other).AllocHuge(); err != nil {
		t.Fatal(err)
	}
	ns, st := as.MigrateTx(pg, other)
	if st != MigrateNoSpace || ns != 0 {
		t.Fatalf("full destination: (%d, %v), want (0, no-space)", ns, st)
	}
	if s := as.Stats(); s.MigrateAborts != 0 {
		t.Fatal("no-space counted as an abort")
	}
}

func TestMigrateTxThrottleChargesCopyFactor(t *testing.T) {
	as := newAS(t, 4, 16, true)
	now := uint64(0)
	as.Clock = func() uint64 { return now }
	as.Faults = tier.NewFaultPlan(tier.FaultConfig{
		ThrottlePeriodNS: 1_000_000, ThrottleDutyNS: 500_000, ThrottleFactor: 4,
	})
	r := as.Reserve(2 * tier.HugePageSize)
	a := as.Touch(r.BaseVPN, true).Page
	b := as.Touch(r.BaseVPN+tier.SubPages, true).Page

	now = 100_000 // inside the window
	if ns, st := as.MigrateTx(a, tier.CapacityTier); st != MigrateOK || ns != 4*MigrateHugeNS+ShootdownNS {
		t.Fatalf("throttled migration = (%d, %v), want %d", ns, st, uint64(4*MigrateHugeNS+ShootdownNS))
	}
	now = 700_000 // outside the window
	if ns, st := as.MigrateTx(b, tier.CapacityTier); st != MigrateOK || ns != MigrateHugeNS+ShootdownNS {
		t.Fatalf("unthrottled migration = (%d, %v)", ns, st)
	}
	if err := as.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitChargesAbortedSubpageMoves(t *testing.T) {
	as := newAS(t, 4, 16, true)
	as.Faults = alwaysFail()
	r := as.Reserve(tier.HugePageSize)
	var pg *Page
	for i := uint64(0); i < tier.SubPages; i++ {
		pg = as.Touch(r.BaseVPN+i, true).Page
	}
	moved := 0
	subs, ns := as.Split(pg, func(j int) tier.ID {
		if j < 8 {
			moved++
			return tier.CapacityTier
		}
		return tier.NoTier
	})
	if len(subs) != tier.SubPages {
		t.Fatalf("split produced %d subpages", len(subs))
	}
	// Every requested move aborted: pages stayed put, the wasted
	// copies were charged.
	want := uint64(SplitFixedNS+ShootdownNS) + uint64(moved)*MigrateBaseNS
	if ns != want {
		t.Fatalf("split cost %d, want %d (with %d aborted moves)", ns, want, moved)
	}
	for _, sp := range subs {
		if sp.Tier != tier.FastTier {
			t.Fatal("aborted subpage move changed the tier")
		}
	}
	if s := as.Stats(); s.MigrateAborts != uint64(moved) {
		t.Fatalf("aborts = %d, want %d", s.MigrateAborts, moved)
	}
	if err := as.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditCatchesCorruption builds deliberate invariant violations and
// requires Audit to reject each.
func TestAuditCatchesCorruption(t *testing.T) {
	build := func() (*AddressSpace, *Page, *Page) {
		as := newAS(t, 4, 16, false)
		r := as.Reserve(8 * tier.BasePageSize)
		a := as.Touch(r.BaseVPN, true).Page
		b := as.Touch(r.BaseVPN+1, true).Page
		if err := as.Audit(); err != nil {
			t.Fatalf("clean space failed audit: %v", err)
		}
		return as, a, b
	}
	as, a, b := build()
	b.Frame = a.Frame // double-map
	if err := as.Audit(); err == nil {
		t.Error("audit missed a double-mapped frame")
	}
	as, a, _ = build()
	a.dead = true // dead page reachable
	if err := as.Audit(); err == nil {
		t.Error("audit missed a mapped dead page")
	}
	as, a, _ = build()
	as.pt[a.VPN] = 0 // frame leak: allocated but unmapped
	if err := as.Audit(); err == nil {
		t.Error("audit missed a leaked frame")
	}
}
