// Package sim is the discrete, deterministic tiered-memory machine
// simulator. A Machine wires a workload's access stream through a TLB
// model and an address space over a chain of memory tiers (the default
// two-tier fast/capacity pair, or an N-deep tier.Topology), charges
// every access the latency of the tier its page lives on, and drives a
// pluggable tiering Policy (MEMTIS or one of the baselines).
//
// Virtual time is the time experienced by one representative
// application thread: each access advances the clock by translation
// cost + tier latency + any critical-path stall (demand fault, hint
// fault, synchronous migration). Background daemons (ksampled,
// kmigrated, scanners) consume modelled CPU time that is reported and —
// when the application saturates every core, as the paper's 20-thread
// runs do — converted into a contention slowdown of cores/(cores-used).
package sim

import (
	"math"

	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/tier"
	"memtis/internal/tlb"
	"memtis/internal/vm"
)

// Policy is a tiering system under test. Exactly one policy is attached
// to a machine; it sees every access its FastSampled contract, if any,
// does not exempt (for fault- and scan-based tracking this doubles as
// the accessed-bit/page-fault stream — PEBS policies feed their own
// sampler from it), is ticked on a fixed virtual-time period for
// background work, and decides initial page placement.
type Policy interface {
	Name() string
	// Attach binds the policy to the machine before the workload runs.
	Attach(m *Machine)
	// PlaceNew picks the tier for a faulting page; tier.NoTier selects
	// the machine default (fast while free, then capacity).
	PlaceNew(huge bool, vpn uint64) tier.ID
	// OnAccess observes one access and returns any critical-path stall
	// it inflicts (hint fault, sync migration) in nanoseconds.
	OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64
	// Tick runs background work; called every Machine TickNS.
	Tick(now uint64)
	// BackgroundNS returns cumulative daemon CPU time consumed so far.
	BackgroundNS() uint64
	// BusyCores returns the policy's current estimate of cores kept
	// busy by its background machinery: a constant for spinning
	// designs (HeMem's sampler thread = 1) or a smoothed share of
	// BackgroundNS over wall time for tick-driven daemons (MEMTIS).
	// Finish folds this into DaemonUtil as max(BackgroundNS share,
	// BusyCores) — the two are alternative views of the same cost, so
	// they are never summed. Return 0 when BackgroundNS alone is the
	// whole story.
	BusyCores() float64
	// Capabilities declares, once and for the lifetime of the policy,
	// which deliberate contract deviations the policy claims (see the
	// Capability constants). Harnesses — the conformance suite above
	// all — read this instead of type-asserting concrete policies, so
	// a new policy that shares a deviation declares it rather than
	// growing the suite's special-case list. Return 0 (no deviations)
	// unless a documented capability applies; an undeclared deviation
	// is a conformance failure, a declared-but-unused one is harmless.
	Capabilities() Capability
}

// Capability is a bitset of declared policy properties that adjust the
// conformance contract. Capabilities are static: a policy's set must
// not change after construction.
type Capability uint32

const (
	// CapPinnedPlacement: the policy deliberately directs every
	// allocation at one tier regardless of free space and relies on
	// the VM's documented overflow fallback (the all-fast /
	// all-capacity reference baselines). Conformance suites must not
	// fault PlaceNew for targeting a full tier; adaptive policies must
	// never declare this.
	CapPinnedPlacement Capability = 1 << iota
)

// Has reports whether every bit of want is set.
func (c Capability) Has(want Capability) bool { return c&want == want }

// HotSetReporter is implemented by policies that classify pages so the
// harness can plot identified hot/warm/cold set sizes (Figures 2 and 9).
type HotSetReporter interface {
	HotSet() (hotBytes, warmBytes, coldBytes uint64)
}

// FastSampled declares the access-bypass contract (DESIGN.md §7):
// OnAccess does nothing and returns zero stall on a non-faulting access
// to a seen page that the policy's sampler, if any, declines. Touch
// makes a page seen and vm.AddressSpace.Watch makes it unseen, so the
// policy must Watch a page whenever it changes state its OnAccess acts
// on (arms a hint fault, clears an accessed flag). The machine serves
// the exempt accesses with TouchFast and FeedFast alone, leaving every
// result and trace byte-identical. A policy that does not implement
// FastSampled sees every access. A wrapper around a policy keeps the
// inner policy's contract, whatever it is, by returning GateOf(inner).
type FastSampled interface {
	// SampleGate returns the policy's sampler, or nil when it has none.
	SampleGate() *pebs.Sampler
}

// GateOf returns the sampler the machine gates pol's accesses with: its
// SampleGate when pol implements FastSampled (nil: no sampler, so every
// steady-state access bypasses), and otherwise a shared sampler that
// declines every access, which keeps pol on the full path.
func GateOf(pol Policy) *pebs.Sampler {
	if fs, ok := pol.(FastSampled); ok {
		return fs.SampleGate()
	}
	return declineAll
}

// Config describes the simulated machine.
type Config struct {
	FastBytes uint64
	CapBytes  uint64
	CapKind   tier.Kind // NVM (default) or CXL
	// Topology, when non-nil, replaces the two-tier FastBytes/CapBytes/
	// CapKind trio with an N-deep chain (per-tier sizes and latencies,
	// per-hop migration costs). Nil builds the historical two-tier
	// machine — byte-identical to the pre-topology simulator.
	Topology *tier.Topology
	// Mover configures the rate-limited background mover. The zero
	// value disables it: policies migrate inline, exactly as before,
	// and no mover counters are registered.
	Mover tier.MoverConfig
	// Admission, when non-nil, is the machine-wide admission-control
	// policy scoring migration benefit against per-hop cost; policies
	// consult it through their shared helpers. Nil registers no
	// admission counters and leaves each policy its own default: the
	// shared helpers (policy.Base) defer async migrations during
	// throttle windows, while MEMTIS's kmigrated, when no mover is
	// set, copies inline at the throttled cost.
	Admission tier.Admission
	THP       bool
	TLB       tlb.Config
	Threads   int // application threads (Cores = saturated, 16 = headroom)
	TickNS    uint64
	RecordNS  uint64 // series sampling period (0 disables)
	Seed      int64
	// StreamSeed seeds a Table 2 model's access stream (workload.W),
	// while the policy, the sampler and the fault plan keep Seed. Zero
	// uses Seed. The matrix runner derives it from the base seed and
	// the workload alone, so a workload's cells share one stream.
	StreamSeed int64
	// Trace, when non-nil, receives the machine's event stream
	// (promotions, faults, splits, ...; see package obs). The machine
	// binds its virtual clock to the tracer, so a tracer serves exactly
	// one machine. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Faults configures deterministic fault injection (DESIGN.md §6):
	// transient migration-copy failures, bandwidth-throttling windows
	// and per-tier stall bursts. The zero value disables injection
	// entirely; a zero Faults.Seed derives the decision stream from
	// Seed, so matrix cells with derived per-cell seeds get independent
	// fault histories automatically.
	Faults tier.FaultConfig
}

// Cores is the simulated machine's physical core count (the paper's
// 20-core testbed).
const Cores = 20

func (c *Config) fillDefaults() {
	if c.Threads == 0 {
		c.Threads = Cores
	}
	if c.TickNS == 0 {
		c.TickNS = 200_000 // 200us virtual between policy ticks
	}
}

// SeriesPoint is one sample of the machine's time series.
type SeriesPoint struct {
	TimeNS        uint64
	HotBytes      uint64
	WarmBytes     uint64
	ColdBytes     uint64
	RSSBytes      uint64
	FastUsed      uint64
	FastHitWin    float64 // fast-tier hit ratio since the previous point
	ThroughputWin float64 // accesses per virtual second since previous point
}

// TenantResult is one tenant's share of a multi-tenant run, in space
// order. Exited tenants keep their row (accesses retained, resident
// zero) so fairness sweeps can account for churned tenants.
type TenantResult struct {
	ID            int
	Name          string
	Accesses      uint64
	ResidentBytes uint64
	FastBytes     uint64
}

// Result summarises one workload run.
type Result struct {
	Policy       string
	Workload     string
	Accesses     uint64
	AppNS        uint64  // raw single-thread virtual time
	WallNS       uint64  // AppNS inflated by daemon contention
	Throughput   float64 // accesses per wall-second
	FastHitRatio float64
	DaemonUtil   float64 // cores' worth of daemon CPU
	VM           vm.Stats
	TLB          tlb.Stats
	RSSPeak      uint64
	RSSFinal     uint64
	Series       []SeriesPoint
	// Counters is the machine registry's snapshot (sorted by name):
	// policy-reported counters and gauges, namespaced per policy.
	Counters []obs.Metric
	// Tenants is per-tenant accounting, one row per space, nil on a
	// one-space machine (its results stay byte-identical to the
	// pre-multi-tenant simulator, pinned by a golden test).
	Tenants []TenantResult
}

// Machine is one simulated tiered host running a single workload under
// a single policy. It embeds its one memory, so the tier chain (Fast,
// Cap, Tier, Depth, LastTier), the fault plan (Faults), the tracer
// (Trace), the VM counters, the space list and the audit are the
// memory's, read through the machine.
type Machine struct {
	// Memory is the root space's memory, shared by every space the
	// machine hosts (AS.Memory).
	*vm.Memory
	Cfg Config
	// AS is the root address space.
	AS  *vm.AddressSpace
	TLB *tlb.TLB
	Pol Policy
	reg *obs.Registry

	// gate is GateOf the attached policy: nil when the policy has no
	// sampler or there is no policy, declineAll when the policy declares
	// no bypass contract.
	gate *pebs.Sampler

	// mover is the rate-limited background mover (nil when disabled).
	mover *vm.Mover

	// The fault plan's window counters; the plan is Faults, nil when
	// cfg.Faults is the zero value, which keeps the hot path at one nil
	// check.
	ctrThrottleWins *uint64
	ctrStallWins    *uint64
	ctrStallNS      *uint64

	// Per-tier latencies indexed by tier ID, hoisted out of the
	// per-access path at construction (tier.AccessNS is two pointer
	// chases per call).
	// loadNS/storeNS are fixed-size arrays rather than slices so the
	// per-access latency lookup is one indexed load with no slice
	// header indirection; tier.MaxTiers bounds every chain.
	loadNS, storeNS [tier.MaxTiers]uint64

	now      uint64
	accesses uint64
	fastHits uint64

	// nextRecord is math.MaxUint64 when series sampling is off, so the
	// hot path pays one compare instead of an enabled-check plus a
	// compare.
	nextTick   uint64
	nextRecord uint64

	// ticking guards deliverTicks against re-entry: a policy whose Tick
	// charges time via AdvanceBackground must not recurse into its own
	// tick delivery (the outer catch-up loop picks up anything that
	// became due).
	ticking bool

	lastAccesses uint64
	lastFastHits uint64
	lastTime     uint64

	rssPeak uint64
	series  []SeriesPoint

	// Address spaces, listed in AS's memory. Every machine starts with
	// the root space alone (AS == cur, curTag == 0); AddSpace appends
	// tenants, and the slices below follow the list's indexes.
	spaceAcc    []uint64 // per-space access counts
	spaceLabels []string
	cur         *vm.AddressSpace
	curID       uint32
	curTag      uint64 // curID << SpaceTagShift

	// AccessObserver, when set, sees every access (used by the DAMON
	// and trace-analysis experiments). The vpn carries the current
	// space tag, like the vpn fed to the TLB and policy.
	AccessObserver func(vpn uint64, write bool, now uint64)

	// The EveryAccesses callback: onCount runs when the machine-wide
	// access count reaches nextCount, which then steps by countEvery.
	// nextCount is math.MaxUint64 while no callback is set.
	onCount    func()
	countEvery uint64
	nextCount  uint64

	// moverNS accumulates the mover's copy work for DaemonUtil. It sits
	// last so that Cfg's StreamSeed leaves every field the access loops
	// read (loadNS on) at the offset it had without it.
	moverNS uint64
}

// SpaceTagShift positions an address-space index above the VPN bits of
// the tagged virtual page numbers handed to the TLB and to
// Policy.OnAccess, so two tenants' identical VPNs never alias in
// translation caches or policy bookkeeping. 40 bits of VPN cover 4PB
// of virtual address space per tenant — far beyond MaxTotalBytes-style
// scenario bounds — and the root space's tag is zero, keeping a
// one-space machine's streams bit-identical to the pre-tenant
// simulator.
const SpaceTagShift = 40

// declineAll gates policies without FastSampled: a zero Sampler's
// controller is always due, so FeedFast (which only reads it then)
// declines every access.
var declineAll = new(pebs.Sampler)

// NewMachine builds a machine; pol may be nil (no tiering: default
// placement, no migration), which is the all-on-one-tier baseline when
// FastBytes is tiny or CapBytes covers everything.
func NewMachine(cfg Config, pol Policy) *Machine {
	cfg.fillDefaults()
	topo := cfg.Topology
	if topo == nil {
		topo = tier.DefaultTopology(cfg.FastBytes, cfg.CapBytes, cfg.CapKind)
	}
	tiers, err := topo.Build()
	if err != nil {
		panic(err)
	}
	as := vm.NewAddressSpaceTiers(tiers, topo, cfg.THP)
	m := &Machine{
		Memory: as.Memory,
		Cfg:    cfg,
		AS:     as,
		TLB:    tlb.New(cfg.TLB),
		Pol:    pol,
		reg:    obs.NewRegistry(),
	}
	m.cur = m.AS
	m.spaceAcc = []uint64{0}
	m.spaceLabels = []string{""}
	if cfg.Trace != nil {
		cfg.Trace.BindClock(func() uint64 { return m.now })
		m.Trace = cfg.Trace
		m.TLB.Trace = cfg.Trace
	}
	if cfg.Faults.Enabled() {
		fc := cfg.Faults
		if fc.Seed == 0 {
			// Fold the machine seed through the same finalizer family
			// the matrix runner uses, so every cell's fault history is
			// independent yet fully determined by its cell seed.
			fc.Seed = cfg.Seed ^ 0x66_61_75_6c_74 // "fault"
		}
		m.Faults = tier.NewFaultPlan(fc)
		m.Clock = func() uint64 { return m.now }
		g := m.reg.Group("fault")
		m.ctrThrottleWins = g.Counter("throttle_windows")
		m.ctrStallWins = g.Counter("stall_windows")
		m.ctrStallNS = g.Counter("stall_ns")
		// Bound once here: the registered counters below exist exactly
		// when faults are on, so fault-disabled counter snapshots (and
		// the golden CSVs diffing them) are unchanged.
		g.Counter("migrate_aborts")
		g.Counter("abort_ns")
	}
	if cfg.Mover.Enabled() {
		m.mover = vm.NewMover(cfg.Mover, m.Memory, m.reg.Group("mover"))
	}
	for i, t := range tiers {
		m.loadNS[i] = t.AccessNS(false)
		m.storeNS[i] = t.AccessNS(true)
	}
	m.nextTick = cfg.TickNS
	m.nextRecord = math.MaxUint64
	if cfg.RecordNS > 0 {
		m.nextRecord = cfg.RecordNS
	}
	m.nextCount = math.MaxUint64
	// A nil policy is a nil placer: the address space's default.
	m.SetPlacer(pol)
	if pol != nil {
		pol.Attach(m)
		m.gate = GateOf(pol)
	}
	return m
}

// EveryAccesses makes fn run after every n-th machine-wide access, that
// is whenever TotalAccesses reaches a multiple of n: after the access
// and the ticks and series samples it made due, before the next access
// starts, whichever of Access and AccessBatch serves it. Periodic
// checks that must not ride on Policy.OnAccess, which the FastSampled
// bypass skips, hang here. A machine holds one callback; a later call
// replaces it, and n == 0 removes it. Call it between accesses, as
// Policy.Attach does, not from a tick or from the callback.
func (m *Machine) EveryAccesses(n uint64, fn func()) {
	m.onCount, m.countEvery, m.nextCount = fn, n, math.MaxUint64
	if n > 0 {
		m.nextCount = (m.accesses/n + 1) * n
	}
}

// deliverCount runs the EveryAccesses callback. Out of line: the hot
// path pays only the m.accesses == m.nextCount compare.
func (m *Machine) deliverCount() {
	m.nextCount += m.countEvery
	m.onCount()
}

// Now returns the current virtual time in nanoseconds.
func (m *Machine) Now() uint64 { return m.now }

// Counters returns the machine's metric registry. Policies grab their
// namespaced cells once, at Attach time.
func (m *Machine) Counters() *obs.Registry { return m.reg }

// Mover returns the machine's background mover — nil when disabled,
// which every Mover method treats as the inline-migration case, so
// the policy helpers consult it unguarded.
func (m *Machine) Mover() *vm.Mover { return m.mover }

// PromoteTarget returns the tier one hop above id — the destination of
// a single-hop promotion — clamped at the fast tier.
func (m *Machine) PromoteTarget(id tier.ID) tier.ID {
	if id <= tier.FastTier {
		return tier.FastTier
	}
	return id - 1
}

// DemoteTarget returns the tier one hop below id — the destination of
// a single-hop demotion — clamped at the deepest tier.
func (m *Machine) DemoteTarget(id tier.ID) tier.ID {
	if last := m.LastTier(); id >= last {
		return last
	}
	return id + 1
}

// AccessGainNS returns the per-access load-latency delta of moving a
// page from src to dst: positive when dst is faster, negative for
// demotions. The admission layer multiplies it by predicted accesses
// to score migration benefit.
func (m *Machine) AccessGainNS(src, dst tier.ID) int64 {
	return int64(m.loadNS[src]) - int64(m.loadNS[dst])
}

// Accesses returns the number of accesses the current address space
// has issued so far (on a one-space machine, the machine's total).
// Workload budget loops (`for m.Accesses() < target`) thereby become
// per-tenant budgets automatically when the tenant scheduler switches
// spaces; TotalAccesses always reads the global count.
func (m *Machine) Accesses() uint64 { return m.spaceAcc[m.curID] }

// TotalAccesses returns the machine-wide access count regardless of
// the current space.
func (m *Machine) TotalAccesses() uint64 { return m.accesses }

// AddSpace creates an additional address space in the machine's
// memory, so it shares the tiers, fault plan, tracer, policy hooks and
// VM counters of every other space, and returns its index. The root
// space (index 0) is m.AS. Call before or between runs, not mid-access.
// It shadows vm.Memory.AddSpace on purpose: the machine also keeps
// each space's label and access count.
func (m *Machine) AddSpace(label string) int {
	as := m.Memory.AddSpace()
	m.spaceAcc = append(m.spaceAcc, 0)
	m.spaceLabels = append(m.spaceLabels, label)
	return int(as.Tenant)
}

// UseSpace makes space id the target of subsequent accesses,
// reservations and frees. The tenant scheduler calls it on every
// context switch.
func (m *Machine) UseSpace(id int) {
	m.cur = m.Spaces()[id]
	m.curID = uint32(id)
	m.curTag = uint64(id) << SpaceTagShift
}

// SetSpaceLabel names a space for per-tenant result rows.
func (m *Machine) SetSpaceLabel(id int, label string) { m.spaceLabels[id] = label }

// Space returns address space id (0 is m.AS).
func (m *Machine) Space(id int) *vm.AddressSpace { return m.Spaces()[id] }

// SpaceAccesses returns the access count issued by space id.
func (m *Machine) SpaceAccesses(id int) uint64 { return m.spaceAcc[id] }

// ForEachPage visits every live page of every space, each space in
// ascending-VPN order, spaces in index order, under
// vm.AddressSpace.ForEachPage's callback contract.
func (m *Machine) ForEachPage(fn func(p *vm.Page)) {
	for _, s := range m.Spaces() {
		s.ForEachPage(fn)
	}
}

// ForEachPageFrom is the machine-wide bounded incremental walker:
// like vm.AddressSpace.ForEachPageFrom but cycling over every space.
// The cursor packs the space index above SpaceTagShift and the VPN
// cursor below it, so background sweeps resume exactly where they
// stopped even across tenant spawns.
//
// A one-space machine takes the space's own walker, which goes around
// the table at most once per call. The cycle over several spaces does
// not yet stop after one round: a call that finishes the last space
// may come back to its start space and walk it again from VPN 0.
func (m *Machine) ForEachPageFrom(cursor uint64, max int, fn func(p *vm.Page)) uint64 {
	spaces := m.Spaces()
	if len(spaces) == 1 {
		return m.AS.ForEachPageFrom(cursor, max, fn)
	}
	sid := int(cursor >> SpaceTagShift)
	vc := cursor & (1<<SpaceTagShift - 1)
	if sid >= len(spaces) {
		sid, vc = 0, 0
	}
	remaining := max
	// Bound the walk to one full cycle over the spaces so a machine of
	// empty (exited) tenants terminates without visiting max pages.
	for hops := 0; hops <= len(spaces) && remaining > 0; {
		visited := 0
		next, done := spaces[sid].ForEachPageSlice(vc, remaining, func(p *vm.Page) {
			visited++
			fn(p)
		})
		remaining -= visited
		if !done {
			vc = next
			continue
		}
		sid++
		if sid >= len(spaces) {
			sid = 0
		}
		vc = 0
		hops++
	}
	return uint64(sid)<<SpaceTagShift | vc
}

// AdvanceBackground lets policies charge additional critical-path time
// (used by trackers that stall the app outside OnAccess's return path).
// Like every clock advance, it delivers any policy ticks and series
// samples that become due — a long stall must not postpone background
// work past its schedule.
func (m *Machine) AdvanceBackground(ns uint64) { m.advance(ns) }

// advance is the single place the virtual clock moves: it adds ns and
// runs the tick/record catch-up that every time-advancing path
// (Access, FreeRegion, AdvanceBackground) must share. Bumping m.now
// directly would deliver due policy ticks late.
func (m *Machine) advance(ns uint64) {
	m.now += ns
	if m.now >= m.nextTick {
		m.deliverTicks()
	}
	if m.now >= m.nextRecord {
		m.deliverRecords()
	}
}

// deliverTicks runs the policy tick catch-up loop. Out of line: the hot
// path pays only the m.now >= m.nextTick compare. Re-entrant advances
// from inside Policy.Tick bump the clock only; the loop here delivers
// whatever they made due.
func (m *Machine) deliverTicks() {
	if m.ticking {
		return
	}
	m.ticking = true
	for m.now >= m.nextTick {
		if m.Pol != nil {
			m.Pol.Tick(m.nextTick)
		}
		if m.mover != nil {
			// The mover drains queued migrations on the tick cadence;
			// its copy work is daemon time, not critical path.
			m.moverNS += m.mover.Advance(m.nextTick)
		}
		m.nextTick += m.Cfg.TickNS
	}
	m.ticking = false
}

// deliverRecords samples the series and schedules the next sample.
// Only reached when RecordNS > 0 (nextRecord is pinned at MaxUint64
// otherwise).
func (m *Machine) deliverRecords() {
	m.record()
	for m.nextRecord <= m.now {
		m.nextRecord += m.Cfg.RecordNS
	}
}

// Access issues one memory access to base-page number vpn.
//
// Hot-path invariants (DESIGN.md §7): no allocations on the non-fault
// path, no tracing cost when tracing is disabled, and rare-path work
// (fault injection, tick delivery, series sampling, RSS accounting,
// the EveryAccesses callback) hidden behind single predictable
// compares.
func (m *Machine) Access(vpn uint64, write bool) {
	var tr vm.TouchResult
	pol := m.Pol
	if t, huge, ok := m.cur.TouchFast(vpn, write); ok && (m.gate == nil || m.gate.FeedFast(write, m.now)) {
		// Bypass (FastSampled): the page is mapped and seen, a write is
		// not the subpage's first, and the sampler, if any, consumed the
		// access without sampling it, so OnAccess would do nothing.
		// TouchFast inlines here and builds no TouchResult.
		tr.Tier, tr.Huge = t, huge
		pol = nil
	} else {
		tr = m.cur.Touch(vpn, write)
	}
	// The space tag disambiguates tenants in the TLB and in policy
	// bookkeeping; it is 0 (a free OR) in the root space.
	tvpn := vpn | m.curTag
	cost := m.TLB.Access(tvpn, tr.Huge) + tr.FaultNS
	if write {
		cost += m.storeNS[tr.Tier]
	} else {
		cost += m.loadNS[tr.Tier]
	}
	if tr.Tier == tier.FastTier {
		m.fastHits++
	}
	if m.Faults != nil {
		// Stall bursts hit the access itself; window starts are polled
		// here (the only place virtual time advances densely) so each
		// injection window is reported exactly once.
		if extra := m.Faults.AccessStallNS(tr.Tier, m.now); extra > 0 {
			cost += extra
			*m.ctrStallNS += extra
		}
		if thr, stl := m.Faults.PollWindows(m.now); thr || stl {
			if thr {
				*m.ctrThrottleWins++
				m.Trace.Emit(obs.EvFaultWindow, 0, false, 0, tier.ThrottleWindow)
			}
			if stl {
				*m.ctrStallWins++
				m.Trace.Emit(obs.EvFaultWindow, 0, false, 0, tier.StallWindow)
			}
		}
	}
	if pol != nil {
		cost += pol.OnAccess(tr, tvpn, write)
	}
	// advance(cost), spelled out: advance does not inline, and this is
	// the one call site hot enough for that to matter.
	m.now += cost
	m.accesses++
	m.spaceAcc[m.curID]++
	if m.AccessObserver != nil {
		m.AccessObserver(tvpn, write, m.now)
	}
	if m.now >= m.nextTick {
		m.deliverTicks()
	}
	if m.now >= m.nextRecord {
		m.deliverRecords()
	}
	if tr.Faulted {
		// RSS grows only by demand faults (migrations are net-zero,
		// splits and frees shrink it), so the peak needs re-sampling
		// only here — not on the billions of steady-state accesses.
		if rss := m.RSSBytes(); rss > m.rssPeak {
			m.rssPeak = rss
		}
	}
	if m.accesses == m.nextCount {
		m.deliverCount()
	}
}

// Op is one element of an AccessBatch: the access Machine.Access(VPN,
// Write) would issue.
type Op struct {
	VPN   uint64
	Write bool
}

// AccessBatch issues the ops in order, exactly as the equivalent
// sequence of Access calls would — same costs, same tick and sample
// delivery points, byte-identical event traces. The workload driver
// (workload.Drive) issues every maximal run of a stream's accesses
// through it, amortising per-access loop bookkeeping (budget checks,
// stream indirection); the stream's reservations and frees land
// between batches, at their exact stream position.
//
// The inner loop is Access's bypass unrolled across the batch: one op
// costs a TouchFast, a FeedFast, a TLB probe and the counter updates,
// with the call into Access (and its rare-path branches) paid only by
// ops the bypass refuses, ops that start inside a fault plan's stall
// burst or unreported window (tier.FaultPlan.QuietUntil), and every op
// under an observer. The operations and their order are identical to
// Access's per op — the golden cells in internal/bench pin this.
func (m *Machine) AccessBatch(ops []Op) {
	for len(ops) > 0 {
		// Split the batch after the op that brings the access count to
		// the next EveryAccesses call, so no loop compares the count
		// per op. Access fires the call when it serves that op.
		n := len(ops)
		if c := m.nextCount - m.accesses; c < uint64(n) {
			n = int(c)
		}
		m.accessRun(ops[:n])
		if m.accesses == m.nextCount {
			m.deliverCount()
		}
		ops = ops[n:]
	}
}

// fastStop is the one fused boundary of AccessBatch's steady-state
// loop: the next tick, the next series sample or the end of the fault
// plan's quiet span, whichever comes first. Ticks and samples are
// delivered whenever the clock passes them, so the loop starts or goes
// on only while m.now is short of the quiet span's end; an op that
// starts at or past it goes through Access.
func (m *Machine) fastStop() uint64 {
	return min(m.nextTick, m.nextRecord, m.Faults.QuietUntil(m.now))
}

// accessRun is AccessBatch over ops that bring the access count to the
// next EveryAccesses call at their last op at the earliest.
func (m *Machine) accessRun(ops []Op) {
	i := 0
	for i < len(ops) {
		stop := m.fastStop()
		if m.gate != declineAll && m.AccessObserver == nil && m.now < stop {
			// Batch-invariant fields and the hot counters live in
			// locals, so the loop keeps them in registers across the
			// (non-inlined) TLB probe instead of reloading the Machine
			// struct every op. cur/curTag cannot change mid-batch
			// (scheduling is a batch boundary); the counters are
			// flushed back before anything that can observe them —
			// tick/record delivery and the Access fallback below. The
			// current space's access count is credited at the same
			// flushes, with the accesses since the last one
			// (acc - m.accesses), not once per access.
			cur, tag, smp, tl := m.cur, m.curTag, m.gate, m.TLB
			ldp, stp := &m.loadNS, &m.storeNS
			now, acc, fh := m.now, m.accesses, m.fastHits
			for i < len(ops) {
				vpn, write := ops[i].VPN, ops[i].Write
				t, huge, ok := cur.TouchFast(vpn, write)
				if !ok || smp != nil && !smp.FeedFast(write, now) {
					// Not steady-state or the sampler wants it: replay
					// through Access (TouchFast and a refused FeedFast
					// are both side-effect-free, so the replay is exact).
					break
				}
				cost := tl.Access(vpn|tag, huge)
				lat := ldp
				if write {
					lat = stp
				}
				cost += lat[t]
				if t == tier.FastTier {
					fh++
				}
				now += cost
				acc++
				i++
				if now >= stop {
					m.spaceAcc[m.curID] += acc - m.accesses
					m.now, m.accesses, m.fastHits = now, acc, fh
					if now >= m.nextTick {
						m.deliverTicks()
					}
					if now >= m.nextRecord {
						m.deliverRecords()
					}
					// A policy tick may advance time (AdvanceBackground);
					// re-sync the register copies with the machine.
					now, acc, fh = m.now, m.accesses, m.fastHits
					if stop = m.fastStop(); now >= stop {
						break
					}
				}
			}
			m.spaceAcc[m.curID] += acc - m.accesses
			m.now, m.accesses, m.fastHits = now, acc, fh
		}
		if i < len(ops) {
			m.Access(ops[i].VPN, ops[i].Write)
			i++
		}
	}
}

// Reserve exposes address-space reservation to workloads (the current
// space's, on multi-tenant machines).
func (m *Machine) Reserve(bytes uint64) vm.Region { return m.cur.Reserve(bytes) }

// FreeRegion unmaps a region of the current space (short-lived
// allocations, tenant exit). The freeing thread pays a small per-page
// teardown cost; ticks and samples due during a large free are
// delivered inside it, not deferred to the next access.
func (m *Machine) FreeRegion(r vm.Region) {
	m.cur.Free(r)
	m.advance(r.Pages * 120) // munmap + page-table teardown per page
}

func (m *Machine) record() {
	pt := SeriesPoint{
		TimeNS:   m.now,
		RSSBytes: m.RSSBytes(),
		FastUsed: m.Fast.UsedFrames() * tier.BasePageSize,
	}
	if hr, ok := m.Pol.(HotSetReporter); ok {
		pt.HotBytes, pt.WarmBytes, pt.ColdBytes = hr.HotSet()
	}
	dA := m.accesses - m.lastAccesses
	if dA > 0 {
		pt.FastHitWin = float64(m.fastHits-m.lastFastHits) / float64(dA)
	}
	if dt := m.now - m.lastTime; dt > 0 {
		pt.ThroughputWin = float64(dA) / (float64(dt) / 1e9)
	}
	m.lastAccesses, m.lastFastHits, m.lastTime = m.accesses, m.fastHits, m.now
	m.series = append(m.series, pt)
}

// Finish computes the run result. workload names the workload for
// reporting.
func (m *Machine) Finish(workload string) Result {
	polName := "none"
	var daemonNS uint64
	var busy float64
	if m.Pol != nil {
		polName = m.Pol.Name()
		daemonNS = m.Pol.BackgroundNS()
		busy = m.Pol.BusyCores()
	}
	// The mover's copy work is daemon CPU like any other background
	// machinery (zero when the mover is disabled).
	daemonNS += m.moverNS
	vmStats := m.Stats()
	if m.Faults != nil {
		// Fold the VM's transaction outcomes into the fault counter
		// group (Finish runs once; counters stay monotonic).
		g := m.reg.Group("fault")
		*g.Counter("migrate_aborts") = vmStats.MigrateAborts
		*g.Counter("abort_ns") = vmStats.AbortNS
	}
	elapsed := m.now
	if elapsed == 0 {
		elapsed = 1
	}
	// Daemon cores: the larger of the event-driven CPU time amortised
	// over the run and the policy's own busy-core estimate. These are
	// two views of the same consumption — BusyCores is derived from
	// BackgroundNS for tick-driven daemons (MEMTIS) and a constant for
	// spinning ones (HeMem) — so summing them would double-count.
	util := float64(daemonNS) / float64(elapsed)
	if busy > util {
		util = busy
	}
	maxUtil := float64(Cores) - 1
	if util > maxUtil {
		util = maxUtil
	}
	wall := float64(elapsed)
	if m.Cfg.Threads >= Cores && util > 0 {
		// App wants every core; daemons steal util cores' worth.
		wall *= float64(Cores) / (float64(Cores) - util)
	}
	res := Result{
		Policy:       polName,
		Workload:     workload,
		Accesses:     m.accesses,
		AppNS:        m.now,
		WallNS:       uint64(wall),
		FastHitRatio: ratio(m.fastHits, m.accesses),
		DaemonUtil:   util,
		VM:           vmStats,
		TLB:          m.TLB.Stats(),
		RSSPeak:      m.rssPeak,
		RSSFinal:     m.RSSBytes(),
		Series:       m.series,
		Counters:     m.reg.Snapshot(),
	}
	if spaces := m.Spaces(); len(spaces) > 1 {
		res.Tenants = make([]TenantResult, len(spaces))
		for i, s := range spaces {
			res.Tenants[i] = TenantResult{
				ID:            i,
				Name:          m.spaceLabels[i],
				Accesses:      m.spaceAcc[i],
				ResidentBytes: s.ResidentUnits() * tier.BasePageSize,
				FastBytes:     s.FastUnits() * tier.BasePageSize,
			}
		}
	}
	if wall > 0 {
		res.Throughput = float64(m.accesses) / (wall / 1e9)
	}
	return res
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Workload is anything that can drive a machine with an access stream.
type Workload interface {
	Name() string
	// Run issues approximately `accesses` accesses against m, including
	// any initialisation phase the workload models.
	Run(m *Machine, accesses uint64)
}

// Run executes a workload for the given number of accesses on a fresh
// machine and returns the result.
func Run(cfg Config, pol Policy, w Workload, accesses uint64) Result {
	m := NewMachine(cfg, pol)
	w.Run(m, accesses)
	return m.Finish(w.Name())
}
