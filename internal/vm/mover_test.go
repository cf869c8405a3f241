package vm

import (
	"testing"

	"memtis/internal/obs"
	"memtis/internal/tier"
)

// moverRig is a two-tier space whose mover's counters land in reg
// under "mover/".
type moverRig struct {
	t   *testing.T
	as  *AddressSpace
	mv  *Mover
	reg *obs.Registry
}

func newMoverRig(t *testing.T, cfg tier.MoverConfig, faults *tier.FaultPlan, fastBlocks, capBlocks int) *moverRig {
	t.Helper()
	as := newAS(t, fastBlocks, capBlocks, true)
	as.Faults = faults
	reg := obs.NewRegistry()
	return &moverRig{t: t, as: as, mv: NewMover(cfg, as.Memory, reg.Group("mover")), reg: reg}
}

// huge faults n huge pages in, fast tier first.
func (r *moverRig) huge(n int) []*Page {
	pgs := make([]*Page, n)
	for i := range pgs {
		pgs[i] = r.as.Touch(r.as.Reserve(tier.HugePageSize).BaseVPN, true).Page
	}
	return pgs
}

// want asserts the named mover counters; every other outcome counter
// must still be zero.
func (r *moverRig) want(counts map[string]uint64) {
	r.t.Helper()
	for _, name := range []string{
		"enqueued", "rejected_full", "moved_pages", "moved_bytes",
		"wasted_bytes", "granted_bytes", "stale_dropped", "no_space",
		"denied", "aborted", "dropped", "deferred_throttle", "queue_len",
	} {
		got, ok := r.reg.Value("mover/" + name)
		if !ok {
			r.t.Fatalf("mover/%s not registered", name)
		}
		if got != counts[name] {
			r.t.Errorf("mover/%s = %d, want %d", name, got, counts[name])
		}
	}
}

const hugeBytes = uint64(tier.HugePageSize)

func TestMoverMovesWithinBudget(t *testing.T) {
	r := newMoverRig(t, tier.MoverConfig{BytesPerWindow: 2 * hugeBytes, WindowNS: 1_000_000}, nil, 4, 8)
	pgs := r.huge(3)
	for _, pg := range pgs {
		if !r.mv.Enqueue(pg, tier.CapacityTier) {
			t.Fatal("enqueue refused below the queue bound")
		}
	}
	r.want(map[string]uint64{"enqueued": 3, "queue_len": 3})

	// The first Advance grants one window: two huge pages' worth.
	if ns := r.mv.Advance(0); ns != 2*(MigrateHugeNS+ShootdownNS) {
		t.Fatalf("Advance spent %d ns, want two huge copies", ns)
	}
	r.want(map[string]uint64{"enqueued": 3, "queue_len": 1,
		"moved_pages": 2, "moved_bytes": 2 * hugeBytes, "granted_bytes": 2 * hugeBytes})

	// Half a window accrues nothing; the next whole window moves the rest.
	if ns := r.mv.Advance(500_000); ns != 0 {
		t.Fatalf("sub-window Advance spent %d ns", ns)
	}
	r.mv.Advance(1_000_000)
	r.want(map[string]uint64{"enqueued": 3,
		"moved_pages": 3, "moved_bytes": 3 * hugeBytes, "granted_bytes": 4 * hugeBytes})
	for i, pg := range pgs {
		if pg.Tier != tier.CapacityTier {
			t.Fatalf("page %d still on tier %v", i, pg.Tier)
		}
	}
	if err := r.as.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestMoverDropsStaleTasks(t *testing.T) {
	r := newMoverRig(t, tier.MoverConfig{BytesPerWindow: 4 * hugeBytes}, nil, 4, 8)
	pgs := r.huge(3)
	for _, pg := range pgs {
		r.mv.Enqueue(pg, tier.CapacityTier)
	}
	// A page already on its destination is accepted and settled
	// without queueing.
	if !r.mv.Enqueue(pgs[0], tier.FastTier) {
		t.Fatal("enqueue to the page's own tier refused")
	}
	r.as.Free(Region{BaseVPN: pgs[0].VPN, Pages: tier.SubPages})
	if _, st := r.as.MigrateTx(pgs[1], tier.CapacityTier); st != MigrateOK {
		t.Fatalf("inline migration: %v", st)
	}
	r.mv.Advance(0)
	r.want(map[string]uint64{"enqueued": 3, "stale_dropped": 2,
		"moved_pages": 1, "moved_bytes": hugeBytes, "granted_bytes": 4 * hugeBytes})
}

func TestMoverNoSpaceAndDenied(t *testing.T) {
	r := newMoverRig(t, tier.MoverConfig{BytesPerWindow: 4 * hugeBytes}, nil, 1, 4)
	pgs := r.huge(2) // the second falls back to the capacity tier
	if pgs[0].Tier != tier.FastTier || pgs[1].Tier != tier.CapacityTier {
		t.Fatalf("pages faulted onto %v and %v", pgs[0].Tier, pgs[1].Tier)
	}
	r.mv.Enqueue(pgs[1], tier.FastTier)
	r.mv.Advance(0)
	r.want(map[string]uint64{"enqueued": 1, "no_space": 1, "granted_bytes": 4 * hugeBytes})

	r.as.MigrateVeto = func(*Page, tier.ID, uint64) bool { return false }
	r.mv.Enqueue(pgs[0], tier.CapacityTier)
	r.mv.Advance(0)
	r.want(map[string]uint64{"enqueued": 2, "no_space": 1, "denied": 1, "granted_bytes": 4 * hugeBytes})
	if pgs[0].Tier != tier.FastTier || pgs[1].Tier != tier.CapacityTier {
		t.Fatal("a refused task moved its page")
	}
}

func TestMoverAbortsThenDrops(t *testing.T) {
	plan := alwaysFail()
	r := newMoverRig(t, tier.MoverConfig{BytesPerWindow: 8 * hugeBytes}, plan, 4, 8)
	pg := r.huge(1)[0]
	r.mv.Enqueue(pg, tier.CapacityTier)
	attempts := uint64(plan.MaxRetries() + 1)
	if ns := r.mv.Advance(0); ns != attempts*MigrateHugeNS {
		t.Fatalf("Advance spent %d ns, want %d wasted copies", ns, attempts)
	}
	r.want(map[string]uint64{"enqueued": 1, "aborted": attempts, "dropped": 1,
		"wasted_bytes": attempts * hugeBytes, "granted_bytes": 8 * hugeBytes})
	if pg.Tier != tier.FastTier {
		t.Fatal("an aborted page moved")
	}
}

func TestMoverDefersInThrottleWindow(t *testing.T) {
	plan := tier.NewFaultPlan(tier.FaultConfig{ThrottlePeriodNS: 10_000_000, ThrottleDutyNS: 1_000_000})
	r := newMoverRig(t, tier.MoverConfig{BytesPerWindow: hugeBytes, WindowNS: 1_000_000}, plan, 4, 8)
	r.mv.Advance(0) // an empty queue defers nothing
	r.want(map[string]uint64{"granted_bytes": hugeBytes})

	r.mv.Enqueue(r.huge(1)[0], tier.CapacityTier)
	r.mv.Advance(500_000)
	r.want(map[string]uint64{"enqueued": 1, "queue_len": 1, "deferred_throttle": 1, "granted_bytes": hugeBytes})

	r.mv.Advance(5_000_000)
	r.want(map[string]uint64{"enqueued": 1, "deferred_throttle": 1,
		"moved_pages": 1, "moved_bytes": hugeBytes, "granted_bytes": 2 * hugeBytes})
}

func TestMoverRejectsFullQueue(t *testing.T) {
	r := newMoverRig(t, tier.MoverConfig{BytesPerWindow: hugeBytes, QueueCap: 2}, nil, 4, 8)
	pgs := r.huge(3)
	for i, pg := range pgs {
		if ok := r.mv.Enqueue(pg, tier.CapacityTier); ok != (i < 2) {
			t.Fatalf("enqueue %d accepted=%v at QueueCap 2", i, ok)
		}
	}
	r.want(map[string]uint64{"enqueued": 2, "rejected_full": 1, "queue_len": 2})
}

// TestMoverBudgetConservation drives a sub-huge-page budget through
// aborts and a long idle gap: the burst cap clips every grant, and the
// bytes moved plus the bytes wasted never exceed the bytes granted.
func TestMoverBudgetConservation(t *testing.T) {
	const perWindow = 64 << 10
	plan := tier.NewFaultPlan(tier.FaultConfig{Seed: 3, MigrateFailPpm: 400_000})
	r := newMoverRig(t, tier.MoverConfig{BytesPerWindow: perWindow, WindowNS: 1_000_000}, plan, 8, 16)
	for _, pg := range r.huge(6) {
		r.mv.Enqueue(pg, tier.CapacityTier)
	}
	get := func(name string) uint64 { v, _ := r.reg.Value("mover/" + name); return v }
	var now uint64
	for step := 0; step < 400 && r.mv.QueueLen() > 0; step++ {
		now += 1_000_000
		if step == 100 {
			now += 1_000_000_000 // a thousand idle windows
		}
		r.mv.Advance(now)
		moved, wasted, granted := get("moved_bytes"), get("wasted_bytes"), get("granted_bytes")
		if moved+wasted > granted {
			t.Fatalf("t=%d: moved %d + wasted %d exceed granted %d", now, moved, wasted, granted)
		}
		// The unspent pool is the grant minus the spend; the burst cap
		// (one huge page for a sub-2MB budget) bounds it.
		if unspent := granted - moved - wasted; unspent > hugeBytes {
			t.Fatalf("t=%d: %d bytes unspent, above the %d-byte burst cap", now, unspent, hugeBytes)
		}
	}
	if r.mv.QueueLen() != 0 {
		t.Fatalf("%d tasks still queued", r.mv.QueueLen())
	}
	if get("moved_pages")+get("dropped") != 6 {
		t.Fatalf("moved %d + dropped %d of 6 tasks", get("moved_pages"), get("dropped"))
	}
	if get("aborted") == 0 {
		t.Fatal("the 40% fault rate aborted no copy")
	}
}
