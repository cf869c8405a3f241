// Package memtis implements the paper's primary contribution: a tiered
// memory policy with access-distribution-based hot set classification
// (§4.2) and skewness-aware page size determination (§4.3), driven by
// PEBS-style sampling with bounded CPU overhead (§4.1).
//
// The policy maintains two exponential histograms — the page access
// histogram (over hotness factors H_i) and the emulated base-page
// histogram (over per-4KB hotness) — adapts hot/warm/cold thresholds
// with Algorithm 1, cools both histograms periodically to track an
// exponential moving average of access frequency, migrates pages
// strictly in the background (kmigrated), and splits highly skewed huge
// pages when the estimated base-page hit ratio (eHR) sufficiently
// exceeds the measured fast-tier hit ratio (rHR).
//
// Background work is incremental (DESIGN.md §8): cooling is a lazy
// global epoch applied per page on the next touch plus a bounded cursor
// sweep, demotion candidates live in incrementally-maintained per-bin
// lists, and collapse candidates come from per-2MB-block presence
// counters feeding a verified ready queue — no policy path scans the
// whole address space, so background cost per cooling is O(changed
// pages + bounded sweep), independent of RSS.
package memtis

import (
	"math"

	"memtis/internal/histogram"
	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/policy"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// Page flag bits in vm.Page.PFlags used by this policy.
const (
	flagInPromo = 1 << iota
	// flagInFastList: the page is linked into fastByBin[pg.Bin] at
	// index pg.PIdx. Every registered fast-tier page carries this flag
	// except transiently after a failed demotion (the cooling sweep
	// re-links such orphans).
	flagInFastList
	flagRegistered
	flagScanRef // accessed since the last hybrid accessed-bit scan
)

// Background work cost model (ns); scaled by the same residual
// time-compression factor as package vm's costs (see DESIGN.md §4).
const (
	coolPageScanNS  = 4       // apply one page's pending cooling + histogram fixup
	coolSubScanNS   = 1       // halve one subpage counter
	listScanPageNS  = 2       // sweep/scan visit of one page
	migBandwidthBPS = 8 << 30 // background migration copy bandwidth (~one core of kmigrated)
)

// Config tunes the policy. Zero values take scaled paper defaults; see
// DESIGN.md §4 for the scaling rationale.
type Config struct {
	Sampler pebs.Config

	// Alpha is Algorithm 1's fill-target factor (paper: 0.9).
	Alpha float64
	// AdaptEvery is the threshold-adaptation interval in samples
	// (paper: 100K at GB scale; default: fast-tier units / 2).
	AdaptEvery uint64
	// CoolEvery is the cooling interval in samples (paper: 2M at GB
	// scale; default: 4 * AdaptEvery).
	CoolEvery uint64
	// KmigratedPeriodNS is the background migration thread's wake
	// period (paper: 500ms at GB scale; default 1ms virtual).
	KmigratedPeriodNS uint64
	// FreeSpaceTarget is the fast-tier free-space threshold that
	// triggers demotion (paper: 2%).
	FreeSpaceTarget float64
	// SplitDisabled turns off skewness-aware huge page splitting
	// (the paper's MEMTIS-NS ablation).
	SplitDisabled bool
	// WarmDisabled turns off the warm set (the paper's "Vanilla"
	// ablation in Figure 10): every non-hot page is demotable.
	WarmDisabled bool
	// SplitBenefitMin is the minimum eHR-rHR gap that triggers
	// splitting (paper: 5%).
	SplitBenefitMin float64
	// Beta is the split-count scale factor of Eq. 2 (paper: 0.4).
	Beta float64
	// MaxSplitsPerWake bounds split work per kmigrated wake.
	MaxSplitsPerWake int
	// HybridScan enables the paper's §8 extension: a slow page-table
	// accessed-bit scan that accelerates the cooling of pages sampling
	// never sees, fixing PEBS's blind spot for rarely-accessed pages.
	HybridScan bool
	// HybridScanPeriodNS is the accessed-bit scan period (default 4ms
	// virtual when HybridScan is set).
	HybridScanPeriodNS uint64
	// HybridScanPages bounds one accessed-bit scan event to a window of
	// pages, resumed from a cursor like the kernel's LRU walkers
	// (default 512).
	HybridScanPages int
	// CoolSweepPages bounds the per-wake cooling-convergence sweep: up
	// to this many pages get their pending cooling epochs applied per
	// kmigrated wake, so pages the sampler never revisits still
	// converge within RSS/CoolSweepPages wakes (default 256).
	CoolSweepPages int
}

func (c *Config) fillDefaults(fastUnits, rssHintUnits uint64) {
	if c.Alpha == 0 {
		c.Alpha = 0.9
	}
	if c.AdaptEvery == 0 {
		c.AdaptEvery = fastUnits / 2
		if c.AdaptEvery < 512 {
			c.AdaptEvery = 512
		}
	}
	if c.CoolEvery == 0 {
		c.CoolEvery = 3 * c.AdaptEvery
	}
	if c.KmigratedPeriodNS == 0 {
		c.KmigratedPeriodNS = 1_000_000
	}
	if c.FreeSpaceTarget == 0 {
		c.FreeSpaceTarget = 0.02
	}
	if c.SplitBenefitMin == 0 {
		c.SplitBenefitMin = 0.05
	}
	if c.Beta == 0 {
		c.Beta = 0.4
	}
	if c.MaxSplitsPerWake == 0 {
		c.MaxSplitsPerWake = 8
	}
	if c.HybridScan && c.HybridScanPeriodNS == 0 {
		c.HybridScanPeriodNS = 4_000_000
	}
	if c.HybridScanPages == 0 {
		c.HybridScanPages = 512
	}
	if c.CoolSweepPages == 0 {
		c.CoolSweepPages = 256
	}
	_ = rssHintUnits
}

// blockState tracks one aligned 2MB block of base pages for collapse
// candidacy (§4.3.3): present counts live base pages in the block;
// queued dedups membership in the ready queue. Hotness is not counted
// here — it would go stale under threshold motion — readiness is
// verified per candidate when the queue drains at cooling.
type blockState struct {
	present uint16
	queued  bool
}

// Policy is the MEMTIS tiering policy. Create one per machine run.
type Policy struct {
	cfg  Config
	m    *sim.Machine
	smp  *pebs.Sampler
	gate *policy.AdmissionGate

	pageHist histogram.Histogram // H_i scale, units of 4KB pages
	baseHist histogram.Histogram // emulated base-page histogram
	th       histogram.Thresholds
	bth      histogram.Thresholds

	samplesSinceAdapt uint64
	samplesSinceCool  uint64

	// Registry-backed counters (machine-namespaced under Name()),
	// bound at Attach; nil until then, so the public accessors
	// nil-guard. Plain *uint64 increments — the machine is
	// single-threaded.
	coolings    *uint64
	adaptations *uint64
	samples     *uint64
	lazyApplied *uint64 // cool_lazy_applied: pending epochs applied on touch/sweep
	sweepPages  *uint64 // cool_sweep_pages: pages visited by the convergence sweep
	readyCtr    *uint64 // collapse_ready: blocks enqueued as collapse candidates
	busyGauge   *uint64 // bg_share_mcores: BusyCores EMA in millicores
	busyPeak    *uint64 // bg_share_peak_mcores: max of the same

	trace *obs.Tracer

	promo []*vm.Page

	// fastByBin holds every registered fast-tier page, keyed by its
	// cached histogram bin, with flagInFastList/PIdx as the intrusive
	// back-reference (swap-remove, O(1) membership changes). Demotion
	// pops coldest bins first; there is no rebuild scan — membership is
	// maintained at every point that already mutates Bin, Tier or
	// registration (DESIGN.md §8).
	fastByBin [histogram.Bins][]*vm.Page

	// coolEpoch is the global cooling epoch; vm.Page.P2 is the page's
	// last-applied epoch. Invariant: a registered page's units sit in
	// pageHist at pg.Bin iff pg.P2 == coolEpoch; otherwise they sit at
	// clamp(pg.Bin - delta, 0), exactly where delta Histogram.Cool()
	// shifts left them, and applyCooling owes the page delta halvings.
	coolEpoch   uint64
	sweepCursor uint64
	scanCursor  uint64

	// Collapse ready queue, double-buffered so draining never aliases
	// concurrent enqueues; oldsBuf is the reusable verification scratch
	// (the eager implementation allocated a map plus slices per
	// cooling).
	blocks       map[uint64]*blockState
	readyBlocks  []uint64
	readyScratch []uint64
	oldsBuf      [tier.SubPages]*vm.Page

	nextWake uint64
	nextScan uint64

	// BusyCores derivation: background-ns delta over the elapsed wake
	// window, smoothed (§4.4's overhead budget made observable).
	busyEMA     float64
	lastWakeNow uint64
	lastWakeBG  uint64

	// Hit-ratio estimation window (§4.3.1).
	hrSamples     uint64
	hrFast        uint64
	hrEst         float64
	hugeSamples   uint64
	distinctHuge  uint64
	hrEpoch       uint64
	estimateEvery uint64

	// Lifetime hit-ratio aggregates for Figure 12.
	totSamples uint64
	totFast    uint64
	totEst     float64

	// Skewness buckets rebuilt each cooling epoch: bucket b holds huge
	// pages with log2(S_i) == b (clamped), filed when their pending
	// cooling is applied.
	skewBuckets [48][]*vm.Page
	skewEpoch   uint64

	splitQueue  []*vm.Page
	splits      *uint64
	dbgQueued   *uint64
	dbgBucketed *uint64
	dbgNs       *uint64
	dbgWindows  *uint64
	dbgRejCount *uint64
	dbgRejUtil  *uint64
	dbgRejU     *uint64
	dbgSeen     *uint64

	backgroundNS uint64

	// eagerConverge is a test-only reference mode: cool() applies every
	// pending epoch to every page before adapting thresholds,
	// reproducing the retired eager scan's semantics exactly. The
	// equivalence suite compares lazy runs against it.
	eagerConverge bool
}

var _ sim.Policy = (*Policy)(nil)
var _ sim.HotSetReporter = (*Policy)(nil)

// New creates a MEMTIS policy with the given configuration.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg}
}

// Name implements sim.Policy.
func (p *Policy) Name() string {
	switch {
	case p.cfg.SplitDisabled && p.cfg.WarmDisabled:
		return "memtis-vanilla"
	case p.cfg.SplitDisabled:
		return "memtis-ns"
	case p.cfg.WarmDisabled:
		return "memtis-nowarm"
	case p.cfg.HybridScan:
		return "memtis-hybrid"
	default:
		return "memtis"
	}
}

// Attach implements sim.Policy.
func (p *Policy) Attach(m *sim.Machine) {
	p.m = m
	fastUnits := m.Fast.CapacityFrames()
	rssHint := m.Cap.CapacityFrames()
	p.cfg.fillDefaults(fastUnits, rssHint)
	p.smp = pebs.NewSampler(p.cfg.Sampler)
	p.trace = m.Cfg.Trace
	p.smp.Trace = m.Cfg.Trace
	g := m.Counters().Group(p.Name())
	p.coolings = g.Counter("coolings")
	p.adaptations = g.Counter("adaptations")
	p.samples = g.Counter("samples")
	p.lazyApplied = g.Counter("cool_lazy_applied")
	p.sweepPages = g.Counter("cool_sweep_pages")
	p.readyCtr = g.Counter("collapse_ready")
	p.busyGauge = g.Gauge("bg_share_mcores")
	p.busyPeak = g.Gauge("bg_share_peak_mcores")
	p.splits = g.Counter("splits")
	p.dbgQueued = g.Counter("split_queued")
	p.dbgBucketed = g.Counter("split_bucketed")
	p.dbgNs = g.Counter("split_ns_sum")
	p.dbgWindows = g.Counter("split_windows")
	p.dbgSeen = g.Counter("split_seen")
	p.dbgRejCount = g.Counter("split_rej_samples")
	p.dbgRejUtil = g.Counter("split_rej_util")
	p.dbgRejU = g.Counter("split_rej_concentration")
	p.th = histogram.Thresholds{Hot: 1, Warm: 1, Cold: 0}
	p.bth = p.th
	p.nextWake = p.cfg.KmigratedPeriodNS
	p.estimateEvery = fastUnits / 4
	if p.estimateEvery < 1024 {
		p.estimateEvery = 1024
	}
	p.blocks = make(map[uint64]*blockState)
	p.gate = policy.NewAdmissionGate(m)
	m.AS.OnUnmap = p.onUnmap
}

// PlaceNew implements sim.Policy: MEMTIS allocates on the fast tier
// whenever memory is available there (§4.2.1); the machine default does
// exactly that.
func (p *Policy) PlaceNew(huge bool, vpn uint64) tier.ID { return tier.NoTier }

// BackgroundNS implements sim.Policy.
func (p *Policy) BackgroundNS() uint64 { return p.backgroundNS + p.smp.SpentNS() }

// BusyCores implements sim.Policy: the smoothed share of one CPU that
// ksampled+kmigrated consumed over recent wake windows, derived from
// the BackgroundNS delta per elapsed interval (§4.4). The same value is
// exported as the bg_share_mcores gauge in sim.Result counters, where
// the conformance suite bounds it.
func (p *Policy) BusyCores() float64 { return p.busyEMA }

// Capabilities implements sim.Policy: MEMTIS follows the full placement
// and migration contract with no declared deviations.
func (p *Policy) Capabilities() sim.Capability { return 0 }

// Sampler exposes the PEBS controller for overhead reporting (§6.3.5).
func (p *Policy) Sampler() *pebs.Sampler { return p.smp }

// SampleGate implements sim.FastSampled: on a non-faulting access the
// sampler ignores, OnAccess does nothing beyond HybridScan's
// scan-referenced flag, which stays set until hybridScan clears it and
// watches the page.
func (p *Policy) SampleGate() *pebs.Sampler { return p.smp }

// deref reads a registry cell that may not be bound yet (before
// Attach the accessors report zero).
func deref(c *uint64) uint64 {
	if c == nil {
		return 0
	}
	return *c
}

// Coolings returns the number of cooling events performed.
func (p *Policy) Coolings() uint64 { return deref(p.coolings) }

// Splits returns the number of huge pages splintered.
func (p *Policy) Splits() uint64 { return deref(p.splits) }

// Thresholds returns the current page-access-histogram thresholds.
func (p *Policy) Thresholds() histogram.Thresholds { return p.th }

// EHR returns the lifetime estimated base-page hit ratio.
func (p *Policy) EHR() float64 { return fratio(p.totEst, p.totSamples) }

// RHR returns the lifetime measured fast-tier hit ratio over samples.
func (p *Policy) RHR() float64 { return ratio(p.totFast, p.totSamples) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fratio(a float64, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return a / float64(b)
}

// HotSet implements sim.HotSetReporter from the page access histogram.
func (p *Policy) HotSet() (hot, warm, cold uint64) {
	for b := 0; b < histogram.Bins; b++ {
		sz := p.pageHist.Bin(b) * tier.BasePageSize
		switch p.th.Classify(b) {
		case 1:
			hot += sz
		case 0:
			warm += sz
		default:
			cold += sz
		}
	}
	return hot, warm, cold
}

// fastListAdd links a registered fast-tier page into fastByBin[pg.Bin].
// No-op if already linked.
func (p *Policy) fastListAdd(pg *vm.Page) {
	if pg.PFlags&flagInFastList != 0 {
		return
	}
	pg.PFlags |= flagInFastList
	l := p.fastByBin[pg.Bin]
	pg.PIdx = uint32(len(l))
	p.fastByBin[pg.Bin] = append(l, pg)
}

// fastListRemove unlinks the page from fastByBin[bin] by swap-remove.
// bin must be the bin the page was linked under (its cached Bin at link
// time; callers changing Bin pass the old value). No-op if not linked.
func (p *Policy) fastListRemove(pg *vm.Page, bin int) {
	if pg.PFlags&flagInFastList == 0 {
		return
	}
	pg.PFlags &^= flagInFastList
	l := p.fastByBin[bin]
	i := pg.PIdx
	last := len(l) - 1
	l[i] = l[last]
	l[i].PIdx = i
	l[last] = nil
	p.fastByBin[bin] = l[:last]
}

// changeBin is the single point through which a registered page's
// cached bin changes: it moves the page's units in the page access
// histogram (histFrom is where the units currently sit, which differs
// from the cached Bin while pending cooling is being applied), rebins
// the fast-tier list membership, and feeds the collapse ready queue on
// upward moves. The emulated base-page histogram is the caller's
// responsibility — its bookkeeping differs between base and huge pages.
func (p *Policy) changeBin(pg *vm.Page, histFrom, newBin int) {
	if histFrom != newBin {
		p.pageHist.Move(histFrom, newBin, pg.Units())
	}
	old := pg.Bin
	if old == newBin {
		return
	}
	pg.Bin = newBin
	if pg.PFlags&flagInFastList != 0 {
		p.fastListRemove(pg, old)
		p.fastListAdd(pg)
	}
	// A base page turning hot may complete an all-hot block: nominate
	// it for collapse verification at the next cooling.
	if newBin > old && newBin >= p.th.Hot && !pg.IsHuge() && !p.cfg.SplitDisabled {
		b := blockKey(pg)
		if bs := p.blocks[b]; bs != nil && bs.present == tier.SubPages {
			p.enqueueBlock(b, bs)
		}
	}
}

// blockTagShift positions a page's owning-space index above its 2MB
// block index in the collapse-tracking keys, mirroring
// sim.SpaceTagShift on vpns: two tenants' identical block indices must
// not pool their presence counts (a cross-tenant "full" block would
// nominate an uncollapsible range forever). 31 = SpaceTagShift - 9
// block-index bits per space.
const blockTagShift = sim.SpaceTagShift - 9

// blockKey identifies the 2MB block of a base page, tenant-qualified.
func blockKey(pg *vm.Page) uint64 {
	return uint64(pg.Owner)<<blockTagShift | pg.VPN/tier.SubPages
}

// blockAdd accounts a base page into its 2MB block; a block reaching
// full presence is nominated for collapse verification.
func (p *Policy) blockAdd(pg *vm.Page) {
	if p.cfg.SplitDisabled {
		return
	}
	b := blockKey(pg)
	bs := p.blocks[b]
	if bs == nil {
		bs = &blockState{}
		p.blocks[b] = bs
	}
	bs.present++
	if bs.present == tier.SubPages {
		p.enqueueBlock(b, bs)
	}
}

// blockRemove un-accounts a base page from its 2MB block.
func (p *Policy) blockRemove(pg *vm.Page) {
	if p.cfg.SplitDisabled {
		return
	}
	b := blockKey(pg)
	bs := p.blocks[b]
	if bs == nil {
		return
	}
	if bs.present--; bs.present == 0 {
		delete(p.blocks, b)
	}
}

func (p *Policy) enqueueBlock(b uint64, bs *blockState) {
	if bs.queued {
		return
	}
	bs.queued = true
	p.readyBlocks = append(p.readyBlocks, b)
	*p.readyCtr++
}

// registerPage adds a newly faulted page to both histograms with
// initial hotness at the current hot threshold (§4.2.1), preventing new
// pages from being immediate demotion victims, and links it into the
// incremental membership structures.
func (p *Policy) registerPage(pg *vm.Page) {
	if pg.PFlags&flagRegistered != 0 {
		return
	}
	pg.PFlags |= flagRegistered
	pg.P2 = p.coolEpoch
	if pg.IsHuge() {
		pg.Count = 1 << uint(p.th.Hot)
	} else {
		pg.Count = (1 << uint(p.th.Hot)) / tier.SubPages
	}
	pg.Bin = histogram.BinOf(pg.Hotness())
	p.pageHist.Add(pg.Bin, pg.Units())
	if pg.IsHuge() {
		// Subpage counters start at zero: the emulated base-page view
		// sees 512 cold 4KB pages until samples arrive.
		p.baseHist.Add(0, tier.SubPages)
	} else {
		p.baseHist.Add(pg.Bin, 1)
		p.blockAdd(pg)
	}
	if pg.Tier == tier.FastTier {
		p.fastListAdd(pg)
	}
}

// onUnmap drops a freed page from both histograms and from the
// membership structures, applying pending cooling first so the
// histogram units are removed from where they actually sit.
func (p *Policy) onUnmap(pg *vm.Page) {
	if pg.PFlags&flagRegistered == 0 {
		return
	}
	p.applyCooling(pg)
	p.fastListRemove(pg, pg.Bin)
	if !pg.IsHuge() {
		p.blockRemove(pg)
	}
	pg.PFlags &^= flagRegistered
	p.pageHist.Remove(pg.Bin, pg.Units())
	if pg.IsHuge() {
		for j := 0; j < tier.SubPages; j++ {
			p.baseHist.Remove(histogram.BinOf(pg.SubHotness(j)), 1)
		}
	} else {
		p.baseHist.Remove(pg.Bin, 1)
	}
}

// applyCooling settles the page's pending cooling epochs: the halvings
// that cool() deferred when it shifted the histograms O(bins). After
// delta global coolings without a touch, the page's units sit in
// pageHist at clamp(Bin-delta, 0); this halves the counters delta
// times, moves the units to the true bin (fixing the clamping drift the
// eager scan fixed in place), mirrors the subpage counters, and files
// huge pages into the current epoch's skew buckets. Cost is charged per
// page actually settled, which is what makes cooling O(changed pages).
func (p *Policy) applyCooling(pg *vm.Page) {
	if pg.P2 == p.coolEpoch || pg.PFlags&flagRegistered == 0 {
		return
	}
	delta := p.coolEpoch - pg.P2
	pg.P2 = p.coolEpoch
	*p.lazyApplied++
	shift := int(delta)
	if delta > uint64(histogram.Bins) {
		shift = histogram.Bins
	}
	shifted := pg.Bin - shift
	if shifted < 0 {
		shifted = 0
	}
	pg.Count >>= delta // shifts >= 64 yield 0 in Go: fully cooled
	cost := uint64(coolPageScanNS)
	p.changeBin(pg, shifted, histogram.BinOf(pg.Hotness()))
	if pg.IsHuge() {
		if pg.SubCount != nil {
			cost += tier.SubPages * coolSubScanNS
			for j := 0; j < tier.SubPages; j++ {
				oldH := pg.SubHotness(j)
				if oldH == 0 {
					continue
				}
				sh := histogram.BinOf(oldH) - shift
				if sh < 0 {
					sh = 0
				}
				pg.SubCount[j] >>= delta
				if tb := histogram.BinOf(pg.SubHotness(j)); tb != sh {
					p.baseHist.Move(sh, tb, 1)
				}
			}
		}
		p.updateSkewness(pg)
	} else {
		// Base pages: the base-page histogram entry mirrors Bin; the
		// shift already moved it, fix clamping drift.
		if tb := pg.Bin; tb != shifted {
			p.baseHist.Move(shifted, tb, 1)
		}
	}
	p.backgroundNS += cost
}

// OnAccess implements sim.Policy. All MEMTIS work triggered here is
// background (ksampled) work; the returned critical-path stall is
// always zero — MEMTIS never extends the critical path (§3).
func (p *Policy) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	if tr.Faulted {
		p.registerPage(tr.Page)
	}
	if p.cfg.HybridScan {
		tr.Page.PFlags |= flagScanRef
	}
	if _, ok := p.smp.Feed(vpn, write); ok {
		*p.samples++
		p.processSample(tr)
	}
	p.smp.MaybeAdjust(p.m.Now())
	return 0
}

// processSample is ksampled's per-record work (§4.1, steps 2-3 of
// Figure 4): settle pending cooling, update page and subpage counters,
// move histogram bins, account hit ratios, and enqueue newly hot
// capacity-tier pages for promotion.
func (p *Policy) processSample(tr vm.TouchResult) {
	pg := tr.Page
	if pg.Dead() {
		return
	}
	if pg.PFlags&flagRegistered == 0 {
		p.registerPage(pg)
	}
	p.applyCooling(pg)

	// Page access histogram update.
	oldBin := pg.Bin
	pg.Count++
	newBin := histogram.BinOf(pg.Hotness())
	p.changeBin(pg, oldBin, newBin)

	// Emulated base-page histogram update. unitHotPrev is the 4KB
	// unit's hotness before this sample.
	var unitHotPrev uint64
	if pg.IsHuge() {
		pg.EnsureSubCount()
		j := tr.SubIdx
		unitHotPrev = pg.SubHotness(j)
		pg.SubCount[j]++
		p.baseHist.Move(histogram.BinOf(unitHotPrev), histogram.BinOf(pg.SubHotness(j)), 1)
	} else {
		unitHotPrev = (pg.Count - 1) * tier.SubPages
		if newBin != oldBin {
			p.baseHist.Move(oldBin, newBin, 1)
		}
	}

	// Hit-ratio estimation (§4.3.1).
	p.hrSamples++
	p.totSamples++
	if pg.Tier == tier.FastTier {
		p.hrFast++
		p.totFast++
	}
	// eHR uses the unit's hotness *before* this sample: it is an
	// estimated hit only if the unit already belonged to the hottest-
	// base-pages set. Judging after the increment would let the act of
	// sampling nominate every sampled page into the hot set and
	// inflate the estimate under sparse sampling.
	switch ub := histogram.BinOf(unitHotPrev); {
	case ub >= p.bth.Hot && unitHotPrev > 0:
		p.hrEst++
		p.totEst++
	case ub == p.bth.MarginBin && unitHotPrev > 0:
		// Marginal bin: only MarginFrac of it would fit in the fast
		// tier under base-page-only placement.
		p.hrEst += p.bth.MarginFrac
		p.totEst += p.bth.MarginFrac
	}
	if pg.IsHuge() {
		p.hugeSamples++
		if pg.P0 != p.hrEpoch {
			pg.P0 = p.hrEpoch
			p.distinctHuge++
		}
	}

	// Promotion candidates: hot capacity-tier pages only. Warm pages
	// are never migrated proactively — the migration overhead would
	// overshadow the benefit (§4.2.1); the warm set exists to protect
	// fast-tier residents from demotion, not to pull pages in.
	if pg.Tier != tier.FastTier && pg.Bin >= p.th.Hot && pg.PFlags&flagInPromo == 0 {
		pg.PFlags |= flagInPromo
		p.promo = append(p.promo, pg)
	}

	p.samplesSinceAdapt++
	p.samplesSinceCool++
	if p.samplesSinceAdapt >= p.cfg.AdaptEvery {
		p.adaptThresholds()
		p.samplesSinceAdapt = 0
	}
	if p.samplesSinceCool >= p.cfg.CoolEvery {
		p.cool()
		p.samplesSinceCool = 0
	}
	if p.hrSamples >= p.estimateEvery {
		p.estimateSplitBenefit()
	}
}

// adaptThresholds runs Algorithm 1 on both histograms (§4.2.1).
func (p *Policy) adaptThresholds() {
	fastUnits := p.m.Fast.CapacityFrames()
	p.th = histogram.Adapt(&p.pageHist, fastUnits, p.cfg.Alpha)
	p.bth = histogram.Adapt(&p.baseHist, fastUnits, p.cfg.Alpha)
	if p.cfg.WarmDisabled {
		p.th.Warm = p.th.Hot
		p.th.Cold = p.th.Hot - 1
	}
	*p.adaptations++
	// Aux packs the new thresholds as bin indices (uint8 wraps the
	// sentinel -1 to 255).
	p.trace.Emit(obs.EvAdapt, 0, false, 0, uint64(uint8(p.th.Hot))<<8|uint64(uint8(p.th.Warm)))
}

// cool opens a new cooling epoch (§4.2.2): both histograms shift one
// bin left in O(bins) and the per-page halvings become a debt settled
// lazily — on the page's next sample, scan visit, migration pop or
// unmap, or by the bounded convergence sweep (applyCooling). The
// skewness buckets restart for the new epoch and refill as pages
// settle. Nothing here walks the address space; with the histograms
// already shifted, threshold adaptation sees the same mass distribution
// the eager scan produced (top-bin clamping drift excepted, which
// settles with the pages).
func (p *Policy) cool() {
	*p.coolings++
	p.coolEpoch++
	p.skewEpoch++
	p.pageHist.Cool()
	p.baseHist.Cool()
	for i := range p.skewBuckets {
		p.skewBuckets[i] = p.skewBuckets[i][:0]
	}
	p.backgroundNS += 2 * histogram.Bins * coolPageScanNS
	if p.eagerConverge {
		p.m.ForEachPage(p.applyCooling)
	}
	p.trace.Emit(obs.EvCooling, 0, false, 0, p.coolEpoch)
	p.adaptThresholds()
	p.tryCollapse()
}

// coolSweep converges pages the sampler never revisits: a bounded
// cursor walk (CoolSweepPages per wake) settling pending cooling, so
// every page's classification catches up within RSS/CoolSweepPages
// wakes even if it is never sampled again. The sweep also self-heals
// the fast-list invariant (re-linking pages dropped by a failed
// demotion) and re-nominates full blocks whose hotness came from
// threshold motion rather than bin changes.
func (p *Policy) coolSweep() {
	if p.coolEpoch == 0 {
		return
	}
	n := p.cfg.CoolSweepPages
	p.sweepCursor = p.m.ForEachPageFrom(p.sweepCursor, n, func(pg *vm.Page) {
		*p.sweepPages++
		p.backgroundNS += listScanPageNS
		if pg.PFlags&flagRegistered == 0 {
			return
		}
		p.applyCooling(pg)
		if pg.Tier == tier.FastTier && pg.PFlags&flagInFastList == 0 {
			p.fastListAdd(pg)
		}
		if !pg.IsHuge() && !p.cfg.SplitDisabled && pg.Bin >= p.th.Hot {
			b := blockKey(pg)
			if bs := p.blocks[b]; bs != nil && bs.present == tier.SubPages {
				p.enqueueBlock(b, bs)
			}
		}
	})
}

// updateSkewness computes S_i = sum(H_ij^2)/U_i^2 (Eq. 3) and files the
// page in its skew bucket. Split candidacy requires statistically
// meaningful evidence (§4.3.1's "long-term, stable memory access
// trends"): enough samples on the page, and a genuinely low sampled
// utilization — a uniformly hot page is never a candidate no matter how
// hot, because splitting it would only destroy TLB reach.
func (p *Policy) updateSkewness(pg *vm.Page) {
	if pg.SubCount == nil {
		return
	}
	const (
		minSamples           = 32
		maxUtilPct           = 45
		maxEffectiveSubpages = 64                // 12.5% of a huge page
		minDominantHotness   = 8 * tier.SubPages // >= 8 samples on one subpage
	)
	*p.dbgSeen++
	if pg.Count < minSamples {
		*p.dbgRejCount++
		return
	}
	// The utilization threshold is the estimator's effective hot
	// boundary: the margin bin when one exists, the hot threshold
	// otherwise (a once-sampled subpage can then still count, which is
	// the right behaviour under sparse sampling).
	uBin := p.bth.Hot
	if p.bth.MarginBin >= 0 && p.bth.MarginBin < uBin {
		uBin = p.bth.MarginBin
	}
	if uBin < 1 {
		uBin = 1
	}
	var u, nz, maxSub uint64
	var sum, lin float64
	for j := 0; j < tier.SubPages; j++ {
		h := pg.SubHotness(j)
		if h == 0 {
			continue
		}
		nz++
		if histogram.BinOf(h) >= uBin {
			u++
		}
		if h > maxSub {
			maxSub = h
		}
		hf := float64(h)
		sum += hf * hf
		lin += hf
	}
	if nz*100 > tier.SubPages*maxUtilPct {
		*p.dbgRejUtil++
		return
	}
	if u == 0 || sum == 0 {
		*p.dbgRejU++
		return
	}
	// Concentration gate: (sum H)^2 / sum(H^2) is the effective number
	// of participating subpages. A uniformly hot page scores near its
	// sampled-subpage count; a skewed page scores near its handful of
	// dominant subpages. Splitting a uniformly hot page would only
	// trade TLB reach for nothing, so demand real concentration.
	if lin*lin/sum > maxEffectiveSubpages {
		*p.dbgRejU++
		return
	}
	// The dominant subpage must show repeated hits: post-cooling
	// stragglers sampled once or twice are noise, not skew.
	if maxSub < minDominantHotness {
		*p.dbgRejU++
		return
	}
	s := sum / float64(u*u)
	b := 0
	for s >= 2 && b < len(p.skewBuckets)-1 {
		s /= 2
		b++
	}
	pg.P1 = p.skewEpoch
	p.skewBuckets[b] = append(p.skewBuckets[b], pg)
	*p.dbgBucketed++
}

// estimateSplitBenefit closes one estimation window (§4.3.1): if the
// emulated base-page hit ratio sufficiently exceeds the measured one,
// Eq. 2 sizes the split batch and the top-Ns most skewed huge pages are
// queued for background splitting.
func (p *Policy) estimateSplitBenefit() {
	eHR := fratio(p.hrEst, p.hrSamples)
	rHR := ratio(p.hrFast, p.hrSamples)
	nrSamples := p.hrSamples
	avgHP := 1.0
	if p.distinctHuge > 0 {
		avgHP = float64(p.hugeSamples) / float64(p.distinctHuge)
	}
	p.hrSamples, p.hrFast, p.hrEst = 0, 0, 0
	p.hugeSamples, p.distinctHuge = 0, 0
	p.hrEpoch++

	// Split only on long-term trends (§4.3.1): candidates need skewness
	// data from at least one cooling, so allocation-phase noise never
	// triggers splintering.
	if p.cfg.SplitDisabled || *p.coolings < 1 || eHR-rHR < p.cfg.SplitBenefitMin {
		return
	}
	lFast := float64(p.m.Fast.LoadNS())
	dL := float64(p.m.Cap.LoadNS()) - lFast
	ns := (eHR - rHR) * (dL / lFast) * (float64(nrSamples) * p.cfg.Beta / avgHP)
	limit := float64(nrSamples) / avgHP
	if ns > limit {
		ns = limit
	}
	n := int(ns)
	if n < 1 {
		n = 1
	}
	*p.dbgNs += uint64(n)
	*p.dbgWindows++
	p.queueSplitCandidates(n)
}

// queueSplitCandidates picks the top-n huge pages by skew bucket.
func (p *Policy) queueSplitCandidates(n int) {
	for b := len(p.skewBuckets) - 1; b >= 0 && n > 0; b-- {
		for _, pg := range p.skewBuckets[b] {
			if n == 0 {
				break
			}
			if pg.Dead() || !pg.IsHuge() || pg.P1 != p.skewEpoch {
				continue
			}
			pg.P1 = 0 // de-bucket
			p.splitQueue = append(p.splitQueue, pg)
			*p.dbgQueued++
			n--
		}
	}
}

// Tick implements sim.Policy; kmigrated wakes on its own period and
// runs, in order: the bounded hybrid scan window, the cooling
// convergence sweep, queued huge-page splits, hot promotions (demoting
// cold-then-warm fast-tier pages on demand), and free-space
// maintenance. The wake ends by folding this window's background-ns
// delta into the BusyCores estimate.
func (p *Policy) Tick(now uint64) {
	if now < p.nextWake {
		return
	}
	for p.nextWake <= now {
		p.nextWake += p.cfg.KmigratedPeriodNS
	}
	if p.cfg.HybridScan && now >= p.nextScan {
		for p.nextScan <= now {
			p.nextScan += p.cfg.HybridScanPeriodNS
		}
		p.hybridScan()
	}
	p.coolSweep()
	budget := uint64(float64(p.cfg.KmigratedPeriodNS) / 1e9 * migBandwidthBPS)
	if budget < 2*tier.HugePageSize {
		// kmigrated always finishes at least one huge-page operation
		// per wake, even if that overruns a very short period.
		budget = 2 * tier.HugePageSize
	}
	budget = p.runSplits(budget)
	budget = p.promoteList(&p.promo, flagInPromo, true, budget)
	p.reclaimTo(p.freeTarget(), true, &budget)
	p.updateBusy(now)
}

// updateBusy folds the background-ns spent since the last wake into the
// BusyCores estimate: an EMA of the per-window CPU share, exported as
// millicore gauges so runs surface the §4.4 overhead budget.
func (p *Policy) updateBusy(now uint64) {
	bg := p.BackgroundNS()
	if now > p.lastWakeNow {
		share := float64(bg-p.lastWakeBG) / float64(now-p.lastWakeNow)
		const a = 0.2
		if p.busyEMA == 0 {
			p.busyEMA = share
		} else {
			p.busyEMA = (1-a)*p.busyEMA + a*share
		}
		m := uint64(math.Round(p.busyEMA * 1000))
		*p.busyGauge = m
		if m > *p.busyPeak {
			*p.busyPeak = m
		}
	}
	p.lastWakeNow, p.lastWakeBG = now, bg
}

// runSplits splinters queued huge pages (§4.3.3): hot subpages go to
// the fast tier, cold subpages to the capacity tier, never-written
// subpages are reclaimed inside vm.Split.
func (p *Policy) runSplits(budget uint64) uint64 {
	done := 0
	for len(p.splitQueue) > 0 && done < p.cfg.MaxSplitsPerWake && budget >= tier.HugePageSize {
		pg := p.splitQueue[0]
		p.splitQueue = p.splitQueue[1:]
		if pg.Dead() || !pg.IsHuge() {
			continue
		}
		p.splitOne(pg)
		budget -= tier.HugePageSize
		done++
	}
	return budget
}

func (p *Policy) splitOne(pg *vm.Page) {
	// Drop the huge page from both histograms; re-register survivors.
	p.onUnmap(pg)
	hotBin := p.bth.Hot
	if p.bth.MarginBin >= 1 && p.bth.MarginBin < hotBin {
		hotBin = p.bth.MarginBin
	}
	// Cold subpages stay on the page's tier, except that a fast-tier
	// split sheds its cold remainder one hop down (at depth 2 both
	// cases are the capacity tier, exactly as before).
	coldDst := pg.Tier
	if coldDst == tier.FastTier {
		coldDst = p.m.DemoteTarget(coldDst)
	}
	subs, ns := p.m.SpaceOf(pg).Split(pg, func(j int) tier.ID {
		if histogram.BinOf(pg.SubHotness(j)) >= hotBin {
			if p.m.Fast.FreeFrames() > 0 {
				return tier.FastTier
			}
			return tier.NoTier
		}
		return coldDst
	})
	for _, sp := range subs {
		sp.PFlags = flagRegistered
		sp.P2 = p.coolEpoch
		sp.Bin = histogram.BinOf(sp.Hotness())
		p.pageHist.Add(sp.Bin, 1)
		p.baseHist.Add(sp.Bin, 1)
		p.blockAdd(sp)
		if sp.Tier == tier.FastTier {
			p.fastListAdd(sp)
		}
	}
	p.backgroundNS += ns
	*p.splits++
}

// freeTarget is the fast-tier free-space threshold in frames: the
// configured fraction with a floor of two huge frames (capped at a
// quarter of the tier) so THP allocations can always be absorbed.
func (p *Policy) freeTarget() uint64 {
	f := uint64(float64(p.m.Fast.CapacityFrames()) * p.cfg.FreeSpaceTarget)
	floor := uint64(2 * tier.SubPages)
	if cap4 := p.m.Fast.CapacityFrames() / 4; floor > cap4 {
		floor = cap4
	}
	if f < floor {
		f = floor
	}
	return f
}

// promoteList drains one promotion queue. validFlag is the queue's
// membership flag; allowWarmVictims selects whether reclaim may demote
// warm fast-tier pages to make room (true for hot candidates only —
// warm candidates must never displace warm residents).
func (p *Policy) promoteList(list *[]*vm.Page, validFlag uint32, allowWarmVictims bool, budget uint64) uint64 {
	target := p.freeTarget()
	for len(*list) > 0 && budget > 0 {
		pg := (*list)[0]
		valid := !pg.Dead() && pg.Tier != tier.FastTier
		if valid {
			// Settle pending cooling so candidacy is judged on the
			// page's current classification, not a stale bin.
			p.applyCooling(pg)
			if allowWarmVictims {
				valid = pg.Bin >= p.th.Hot
			} else {
				valid = p.th.Classify(pg.Bin) >= 0
			}
		}
		if !valid {
			pg.PFlags &^= validFlag
			*list = (*list)[1:]
			continue
		}
		need := pg.Units() + target
		if p.m.Fast.FreeFrames() < need {
			p.reclaimTo(need, allowWarmVictims, &budget)
			if p.m.Fast.FreeFrames() < need {
				break
			}
		}
		if pg.Bytes() > budget {
			break
		}
		*list = (*list)[1:]
		pg.PFlags &^= validFlag
		if p.migrate(pg, tier.FastTier) {
			budget -= pg.Bytes()
		}
	}
	return budget
}

// migrate moves one page transactionally with bounded retries on
// fault-aborted copies, charging kmigrated for the successful copy and
// for every wasted attempt plus backoff. With faults disabled this is
// exactly the old single-shot Migrate: no retries, no extra cost. On
// success the fast-tier list membership follows the page's new tier.
//
// All of kmigrated's moves are background work, so when an admission
// policy is configured the gate scores each as async, and when the
// machine runs a background mover the move is enqueued there instead
// of copying inline (list membership then follows the page on the
// mover's commit via the cooling sweep's self-healing re-link).
func (p *Policy) migrate(pg *vm.Page, dst tier.ID) bool {
	if p.gate.Installed() && !p.gate.Allow(pg, dst, false) {
		return false
	}
	if mv := p.m.Mover(); mv.Enabled() && mv.Enqueue(p.m.AS, pg, dst) {
		if dst != tier.FastTier {
			p.fastListRemove(pg, pg.Bin)
		}
		return true
	}
	fp := p.m.Faults()
	for attempt := 0; ; attempt++ {
		ns, st := p.m.AS.MigrateTx(pg, dst)
		p.backgroundNS += ns
		if st == vm.MigrateOK {
			if pg.Tier == tier.FastTier {
				p.fastListAdd(pg)
			} else {
				p.fastListRemove(pg, pg.Bin)
			}
			return true
		}
		if st != vm.MigrateAborted || attempt >= fp.MaxRetries() {
			return false
		}
		p.backgroundNS += fp.RetryBackoffNS(attempt)
		p.trace.Emit(obs.EvMigrateRetry, pg.VPN, pg.IsHuge(), pg.Bytes(), uint64(attempt+1))
	}
}

// popDemo pops the next demotion victim from the per-bin fast-tier
// lists, coldest bins first; allowWarm extends the range to the warm
// bins (§4.2.3 — hot bins are never eligible). The victim's pending
// cooling is settled before it is accepted, so no page is ever demoted
// off a stale classification. The victim is unlinked before migration:
// a failed migration therefore drops it for this wake (no retry loop
// against the same page) and the cooling sweep re-links it later.
func (p *Policy) popDemo(allowWarm bool) *vm.Page {
	limit := p.th.Cold
	if allowWarm {
		limit = p.th.Hot - 1
	}
	if limit >= histogram.Bins {
		limit = histogram.Bins - 1
	}
	for b := 0; b <= limit; b++ {
		for len(p.fastByBin[b]) > 0 {
			l := p.fastByBin[b]
			pg := l[len(l)-1]
			if pg.Dead() || pg.Tier != tier.FastTier || pg.PFlags&flagRegistered == 0 {
				// Unmap/split/migrate should have unlinked; drop
				// defensively rather than demote a stale entry.
				p.fastListRemove(pg, b)
				continue
			}
			p.applyCooling(pg)
			if pg.Bin != b {
				// Settling moved it to a colder list (cooling never
				// raises a bin); it will be found there on the next
				// pop. This list shrank, so the loop progresses.
				continue
			}
			p.fastListRemove(pg, b)
			return pg
		}
	}
	return nil
}

// reclaimTo demotes fast-tier pages until the tier has at least frames
// free: cold pages first, warm pages only if still short and allowed
// (§4.2.3). Hot pages are never demoted — they live in bins the pop
// never reaches.
func (p *Policy) reclaimTo(frames uint64, allowWarm bool, budget *uint64) {
	for p.m.Fast.FreeFrames() < frames && *budget > 0 {
		pg := p.popDemo(allowWarm)
		if pg == nil {
			return
		}
		if pg.Bytes() > *budget {
			// Too big for the remaining budget this wake; nothing
			// disqualified the page itself, so relink it.
			p.fastListAdd(pg)
			return
		}
		if p.migrate(pg, p.m.DemoteTarget(pg.Tier)) {
			*budget -= pg.Bytes()
		}
	}
}

// hybridScan is the §8 extension: an accessed-bit sweep that detects
// pages the sampler never observes. Untouched-since-last-scan pages
// have their counters halved an extra time, so idle pages shed the
// protective initial hotness they were registered with and become
// demotion candidates without waiting for several sampling-driven
// coolings. Touched pages just get their reference bit cleared. Each
// scan event covers a bounded window (HybridScanPages) and resumes
// from a cursor, like the kernel's LRU walkers — never a full scan.
func (p *Policy) hybridScan() {
	var scanned uint64
	p.scanCursor = p.m.ForEachPageFrom(p.scanCursor, p.cfg.HybridScanPages, func(pg *vm.Page) {
		if pg.PFlags&flagRegistered == 0 {
			return
		}
		scanned++
		if pg.PFlags&flagScanRef != 0 {
			pg.PFlags &^= flagScanRef
			p.m.AS.Watch(pg)
			return
		}
		p.applyCooling(pg)
		if pg.Count == 0 {
			return
		}
		oldBin := pg.Bin
		pg.Count /= 2
		newBin := histogram.BinOf(pg.Hotness())
		p.changeBin(pg, oldBin, newBin)
		if newBin != oldBin && !pg.IsHuge() {
			p.baseHist.Move(oldBin, newBin, 1)
		}
	})
	p.backgroundNS += scanned * listScanPageNS
}

// tryCollapse coalesces aligned runs of 512 base pages back into a huge
// page when every constituent is hot (§4.3.3). Done during cooling, as
// the paper's kmigrated does; rare by design. Candidates come from the
// ready queue — blocks nominated when they reached full presence or a
// member turned hot — and each is verified against the current
// thresholds by rescanning only its own 512 slots, with the scratch
// page buffer reused across coolings (no per-cooling allocation).
func (p *Policy) tryCollapse() {
	if p.cfg.SplitDisabled || len(p.readyBlocks) == 0 {
		return
	}
	ready := p.readyBlocks
	p.readyBlocks = p.readyScratch[:0]
	for _, b := range ready {
		bs := p.blocks[b]
		if bs == nil {
			continue
		}
		bs.queued = false
		if bs.present != tier.SubPages {
			continue
		}
		// The ready key carries the owning space above blockTagShift;
		// table lookups and the collapse itself must go through that
		// space (only migrations are space-agnostic).
		as := p.m.Space(int(b >> blockTagShift))
		base := (b & (1<<blockTagShift - 1)) * tier.SubPages
		allHot := true
		checked := uint64(0)
		for j := uint64(0); j < tier.SubPages; j++ {
			pg := as.Lookup(base + j)
			if pg == nil || pg.IsHuge() || pg.PFlags&flagRegistered == 0 {
				allHot = false
				break
			}
			p.applyCooling(pg)
			checked++
			if pg.Bin < p.th.Hot {
				allHot = false
				break
			}
			p.oldsBuf[j] = pg
		}
		p.backgroundNS += checked * listScanPageNS
		if !allHot {
			continue
		}
		dst := p.m.DemoteTarget(tier.FastTier)
		if p.m.Fast.HasHugeFrame() {
			dst = tier.FastTier
		}
		hp, ns, ok := as.Collapse(base, dst)
		if !ok {
			continue
		}
		for _, o := range p.oldsBuf {
			p.fastListRemove(o, o.Bin)
			p.blockRemove(o)
			p.pageHist.Remove(o.Bin, 1)
			p.baseHist.Remove(o.Bin, 1)
			o.PFlags &^= flagRegistered
		}
		hp.PFlags = flagRegistered
		hp.P2 = p.coolEpoch
		hp.Bin = histogram.BinOf(hp.Hotness())
		p.pageHist.Add(hp.Bin, tier.SubPages)
		for j := 0; j < tier.SubPages; j++ {
			p.baseHist.Add(histogram.BinOf(hp.SubHotness(j)), 1)
		}
		if hp.Tier == tier.FastTier {
			p.fastListAdd(hp)
		}
		p.backgroundNS += ns
	}
	p.readyScratch = ready[:0]
}

// DebugForceCool triggers one cooling event immediately, regardless of
// the sample-count schedule. Benchmarks and equivalence tests use it to
// measure and compare cooling events in isolation.
func (p *Policy) DebugForceCool() { p.cool() }

// DebugBaseHist exposes the emulated base-page histogram and its
// thresholds for diagnostics and tests.
func (p *Policy) DebugBaseHist() (bins [histogram.Bins]uint64, th histogram.Thresholds) {
	for i := 0; i < histogram.Bins; i++ {
		bins[i] = p.baseHist.Bin(i)
	}
	return bins, p.bth
}

// DebugSplitStats exposes split pipeline counters for diagnostics.
func (p *Policy) DebugSplitStats() (queued, executed uint64, queueLen int) {
	return deref(p.dbgQueued), deref(p.splits), len(p.splitQueue)
}

// DebugSplitSupply exposes candidate-supply counters for diagnostics.
func (p *Policy) DebugSplitSupply() (bucketed, nsSum, windows uint64) {
	return deref(p.dbgBucketed), deref(p.dbgNs), deref(p.dbgWindows)
}

// DebugSplitRejects exposes per-gate rejection counters.
func (p *Policy) DebugSplitRejects() (seen, rejCount, rejUtil, rejU uint64) {
	return deref(p.dbgSeen), deref(p.dbgRejCount), deref(p.dbgRejUtil), deref(p.dbgRejU)
}
