package policy

import (
	"math"

	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// HeMem models Raybuck et al.'s HeMem (SOSP'21): a user-level library
// that samples memory accesses with PEBS from a dedicated spinning
// thread, classifies pages against static thresholds (hot when the
// sampled access count reaches hotThresh; whenever any page reaches
// coolThresh every counter is halved), migrates asynchronously, and
// always serves small (non-huge) allocations from the fast tier — the
// over-allocation the paper quantifies in Table 3. Its pathologies in
// Figure 2 come straight from the static thresholds: the classified hot
// set bears no relation to the fast tier's size.
type HeMem struct {
	Base
	smp *pebs.Sampler

	hotBytes uint64 // classified-hot bytes, maintained incrementally
	promo    []*vm.Page
	hand     int
	reserve  float64

	overAllocBytes *uint64 // registry counter, bound at Attach
	coolings       *uint64
	nextWake       uint64
	wakeEvery      uint64
}

var _ sim.Policy = (*HeMem)(nil)
var _ sim.HotSetReporter = (*HeMem)(nil)

// hotThresh and coolThresh are HeMem's static sample-count thresholds
// (its defaults).
const (
	hotThresh  = 4
	coolThresh = 18
)

// NewHeMem returns the HeMem baseline.
func NewHeMem() *HeMem {
	return &HeMem{reserve: 0.02, wakeEvery: 1_000_000}
}

// Name implements sim.Policy.
func (h *HeMem) Name() string { return "hemem" }

// Attach implements sim.Policy.
func (h *HeMem) Attach(m *sim.Machine) {
	h.Base.Attach(m)
	// HeMem polls PEBS buffers from a spinning thread; its sampling
	// period is fixed (no feedback controller, so no adjustment is ever
	// due and FeedFast never defers to one). Same scaled period as
	// MEMTIS's initial one so both see comparable sample streams.
	h.smp = pebs.NewSampler(pebs.Config{
		LoadPeriod:  20,
		StorePeriod: 10_000,
		MinPeriod:   20,
		MaxPeriod:   20,
		CostNS:      160,
		AdjustNS:    math.MaxUint64,
	})
	h.nextWake = h.wakeEvery
	h.smp.Trace = m.Trace
	g := h.Counters()
	h.overAllocBytes = g.Counter("overalloc_bytes")
	h.coolings = g.Counter("coolings")
}

// SampleGate implements sim.FastSampled: on a non-faulting access,
// OnAccess only feeds the sampler.
func (h *HeMem) SampleGate() *pebs.Sampler { return h.smp }

// BusyCores implements sim.Policy: the polling thread spins on a core
// (§6.2.1 observes ~100% CPU usage for HeMem's sampling thread).
func (h *HeMem) BusyCores() float64 { return 1.0 }

// OverAllocBytes reports fast-tier bytes consumed by small allocations
// (Table 3).
func (h *HeMem) OverAllocBytes() uint64 {
	if h.overAllocBytes == nil {
		return 0
	}
	return *h.overAllocBytes
}

// PlaceNew implements sim.Policy: small allocations (anything not
// THP-backed) always go to the fast tier.
func (h *HeMem) PlaceNew(huge bool, vpn uint64) tier.ID {
	if !huge && h.M.Fast.FreeFrames() > 0 {
		*h.overAllocBytes += tier.BasePageSize
		return tier.FastTier
	}
	return tier.NoTier
}

// HotSet implements sim.HotSetReporter for Figure 2.
func (h *HeMem) HotSet() (hot, warm, cold uint64) {
	rss := h.M.AS.RSSBytes()
	if h.hotBytes > rss {
		return rss, 0, 0
	}
	return h.hotBytes, 0, rss - h.hotBytes
}

// OnAccess implements sim.Policy.
func (h *HeMem) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	pg := tr.Page
	if tr.Faulted {
		h.Register(pg)
	}
	if _, ok := h.smp.Feed(vpn, write); ok {
		h.sample(pg)
	}
	return 0
}

func (h *HeMem) sample(pg *vm.Page) {
	if pg.Dead() {
		return
	}
	pg.Count++
	if pg.Count == hotThresh {
		h.hotBytes += pg.Bytes()
		if pg.Tier != tier.FastTier && pg.PFlags&flagQueued == 0 {
			pg.PFlags |= flagQueued
			h.promo = append(h.promo, pg)
		}
	}
	if pg.Count >= coolThresh {
		h.coolAll()
	}
}

// coolAll halves every page's counter — HeMem's global cooling, which
// fires whenever any single page saturates.
func (h *HeMem) coolAll() {
	*h.coolings++
	h.Trace().Emit(obs.EvCooling, 0, false, 0, uint64(len(h.Registry)))
	h.hotBytes = 0
	for _, pg := range h.Registry {
		if pg.Dead() {
			continue
		}
		pg.Count /= 2
		if pg.Count >= hotThresh {
			h.hotBytes += pg.Bytes()
		}
	}
	h.BgNS += uint64(len(h.Registry)) * 30
}

// Tick implements sim.Policy: the background migration thread.
func (h *HeMem) Tick(now uint64) {
	if now < h.nextWake {
		return
	}
	for h.nextWake <= now {
		h.nextWake += h.wakeEvery
	}
	// Anti-thrashing: freeze migration when the classified hot set
	// exceeds the fast tier.
	if h.hotBytes > h.M.Fast.CapacityBytes() {
		return
	}
	budget := uint64(8 << 20)
	// Promote classified-hot pages.
	for len(h.promo) > 0 && budget > 0 {
		pg := h.promo[0]
		if pg.Dead() || pg.Tier == tier.FastTier || pg.Count < hotThresh {
			pg.PFlags &^= flagQueued
			h.promo = h.promo[1:]
			continue
		}
		if !h.M.AS.CanMigrate(pg, tier.FastTier) {
			if !h.demoteOne() {
				break
			}
			continue
		}
		if pg.Bytes() > budget {
			break
		}
		h.promo = h.promo[1:]
		pg.PFlags &^= flagQueued
		if h.MigrateAsync(pg, tier.FastTier) {
			budget -= pg.Bytes()
		}
	}
	// Maintain a little head-room.
	reserve := h.FastReserveFrames(h.reserve)
	for h.M.Fast.FreeFrames() < reserve {
		if !h.demoteOne() {
			break
		}
	}
}

// demoteOne evicts one cold fast-tier page (count below hotThresh).
func (h *HeMem) demoteOne() bool {
	if len(h.Registry) == 0 {
		return false
	}
	for i := 0; i < len(h.Registry); i++ {
		if h.hand >= len(h.Registry) {
			h.hand = 0
			h.Compact()
			if len(h.Registry) == 0 {
				return false
			}
		}
		pg := h.Registry[h.hand]
		h.hand++
		if pg.Dead() || pg.Tier != tier.FastTier || pg.Count >= hotThresh {
			continue
		}
		return h.MigrateAsync(pg, h.M.DemoteTarget(pg.Tier))
	}
	return false
}
