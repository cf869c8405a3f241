package policy

import (
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// Tiering08 models the kernel tiering-0.8 patch set: hint-fault
// tracking with promotion gated on the re-fault interval, where the
// interval threshold adapts to hold the promotion rate near a target
// (the paper's "promotion rate" thresholding), recency-based background
// demotion that maintains free head-room in the fast tier, and fast-
// first placement of new allocations into that head-room.
type Tiering08 struct {
	Base
	rearmer Rearmer

	// Adaptive promotion threshold: promote when the time since the
	// page's previous hint fault is below threshNS.
	threshNS   uint64
	promoBytes uint64
	lastAdapt  uint64
	targetBPS  float64 // promotion-rate target (bytes/sec of virtual time)
	threshG    *uint64 // registry gauge mirroring threshNS

	hand    int
	reserve float64
}

var _ sim.Policy = (*Tiering08)(nil)

// NewTiering08 returns the Tiering-0.8 baseline.
func NewTiering08() *Tiering08 {
	return &Tiering08{
		threshNS:  5_000_000,
		targetBPS: 256 << 20, // 256MB/s promotion budget
		reserve:   0.02,
	}
}

// Name implements sim.Policy.
func (t *Tiering08) Name() string { return "tiering-0.8" }

// OnAccess implements sim.Policy.
func (t *Tiering08) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	pg := tr.Page
	now := t.M.Now()
	if tr.Faulted {
		t.Register(pg)
		pg.P0 = now
		return 0
	}
	pg.PFlags |= flagAccessed
	if pg.PFlags&flagArmed == 0 {
		return 0
	}
	pg.PFlags &^= flagArmed
	last := pg.P0
	pg.P0 = now
	stall := uint64(HintFaultNS)
	if pg.Tier != tier.FastTier && now-last < t.threshNS {
		ns, ok := t.MigrateSync(pg, t.M.PromoteTarget(pg.Tier))
		stall += ns
		if ok {
			t.promoBytes += pg.Bytes()
		}
	}
	return stall
}

// Tick implements sim.Policy: re-arm hint faults, adapt the
// promotion threshold, then keep head-room free for allocations and
// promotions by recency.
func (t *Tiering08) Tick(now uint64) {
	n := t.rearmer.Advance(&t.Base, now)
	t.BgNS += uint64(n) * ScanPageNS
	t.adapt(now)
	t.demoteClock(&t.hand, t.reserve, 4)
}

// adapt moves the re-fault threshold to track the promotion-rate
// target: too much promotion traffic tightens it, idle promotion
// loosens it.
func (t *Tiering08) adapt(now uint64) {
	const window = 10_000_000 // 10ms virtual
	if now-t.lastAdapt < window {
		return
	}
	rate := float64(t.promoBytes) / (float64(now-t.lastAdapt) / 1e9)
	t.promoBytes = 0
	t.lastAdapt = now
	switch {
	case rate > t.targetBPS*1.2 && t.threshNS > 500_000:
		t.threshNS -= t.threshNS / 4
	case rate < t.targetBPS*0.8 && t.threshNS < 10_000_000_000:
		t.threshNS += t.threshNS / 4
	}
	if t.threshG == nil {
		t.threshG = t.Counters().Gauge("thresh_ns")
	}
	*t.threshG = t.threshNS
}
