package policy

import (
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// TPP models Meta's Transparent Page Placement (ASPLOS'23): hint-fault
// tracking with a static two-access promotion threshold (a page is
// promoted, on the critical path, when its hint faults arrive closer
// together than the LRU window — the "accessed twice" check on the
// kernel's extended LRU), recency-based background demotion driven by
// active/inactive list aging, and eager head-room maintenance so new
// allocations land in the fast tier. Its 2Q classification is coarse:
// everything faulting twice within the window counts as hot, so the
// identified hot set routinely exceeds the fast tier (§6.2.3) and pages
// thrash between the tiers.
type TPP struct {
	Base
	rearmer Rearmer
	hand    int
	reserve float64
}

var _ sim.Policy = (*TPP)(nil)

// NewTPP returns the TPP baseline.
func NewTPP() *TPP {
	return &TPP{reserve: 0.03}
}

// Name implements sim.Policy.
func (t *TPP) Name() string { return "tpp" }

// OnAccess implements sim.Policy. A page is promoted when it hint-
// faults in two consecutive scan generations — the kernel's "accessed
// twice on the LRU" static threshold.
func (t *TPP) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	pg := tr.Page
	if tr.Faulted {
		t.Register(pg)
		return 0
	}
	pg.PFlags |= flagAccessed
	if pg.PFlags&flagArmed == 0 {
		return 0
	}
	pg.PFlags &^= flagArmed
	epoch := t.rearmer.SweepEpoch + 1 // 0 is "never faulted"
	last := pg.P0
	pg.P0 = epoch
	stall := uint64(HintFaultNS)
	if pg.Tier != tier.FastTier && last+2 > epoch && last != 0 {
		// Second access within two scan generations.
		ns, _ := t.MigrateSync(pg, t.M.PromoteTarget(pg.Tier))
		stall += ns
	}
	return stall
}

// Tick implements sim.Policy.
func (t *TPP) Tick(now uint64) {
	n := t.rearmer.Advance(&t.Base, now)
	t.BgNS += uint64(n) * ScanPageNS
	t.demote()
}

// demote ages the fast tier's LRU clock-style, demoting pages whose
// accessed bit is clear until the allocation head-room is restored.
func (t *TPP) demote() {
	reserve := t.HeadroomFrames(t.reserve)
	if t.M.Fast.FreeFrames() >= reserve || len(t.Registry) == 0 {
		return
	}
	scan := len(t.Registry) / 3
	if scan < 64 {
		scan = 64
	}
	for i := 0; i < scan && t.M.Fast.FreeFrames() < reserve; i++ {
		if t.hand >= len(t.Registry) {
			t.hand = 0
			t.Compact()
			if len(t.Registry) == 0 {
				return
			}
		}
		pg := t.Registry[t.hand]
		t.hand++
		if pg.Dead() || pg.Tier != tier.FastTier {
			continue
		}
		if pg.PFlags&flagAccessed != 0 {
			pg.PFlags &^= flagAccessed
			t.M.AS.Watch(pg)
			continue
		}
		t.MigrateAsync(pg, t.M.DemoteTarget(pg.Tier))
	}
	t.BgNS += uint64(scan) * 25
}
