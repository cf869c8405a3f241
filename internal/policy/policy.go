// Package policy implements the six state-of-the-art tiering systems the
// paper evaluates MEMTIS against (§6.1): AutoNUMA, AutoTiering,
// Tiering-0.8, TPP, Nimble and HeMem, plus a no-migration Static
// reference. Each baseline reproduces the tracking mechanism, hotness
// metric, thresholding and migration path summarised in the paper's
// Table 1, using the same simulator substrate as MEMTIS so that
// differences in outcome stem from policy, not plumbing.
package policy

import (
	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// Page flag bits shared by the baselines (one policy owns a machine's
// pages at a time, so reuse across policies is safe). OnAccess acts on
// flagArmed and flagAccessed, so whoever sets the first or clears the
// second must Watch the page (sim.FastSampled).
const (
	flagArmed    = 1 << iota // hint fault armed (page unmapped for tracking)
	flagAccessed             // accessed bit since last scan
	flagQueued               // on some policy list
)

// Cost model for tracking mechanisms (ns): measured Linux costs, not
// scaled — fault-based tracking pays its real critical-path price per
// event, and the *rate* of hint-fault arming is what kernels bound
// (AutoNUMA scans a fixed window per period), which the Rearmer models.
const (
	HintFaultNS = 1_200 // minor NUMA-hint fault servicing
	ScanPageNS  = 150   // one PTE unmap/check (incl. amortised shootdown)
	SyncExtraNS = 2_000 // extra critical-path bookkeeping for in-fault migration
)

// Base carries the plumbing every baseline shares: machine binding, a
// page registry in fault order, and background CPU accounting.
type Base struct {
	M    *sim.Machine
	BgNS uint64

	Registry []*vm.Page

	// Critical-path migration rate limiting, modelling the kernel's
	// numa_balancing rate limit (~256MB/s). Token bucket refilled by
	// virtual time.
	rateInit   bool
	rateLastNS uint64
	rateTokens float64

	mc *migCounters

	ag     *AdmissionGate
	agInit bool
}

// migCounters are the migration admission/rejection counters every
// baseline reports through the shared MigrateSync/MigrateAsync choke
// points (TierBPF's key diagnostic signal: how much migration the
// policy *wanted* vs. what the rate limiter and tier capacity let
// through). Cells live in the machine registry under the policy's
// name.
type migCounters struct {
	syncPages     *uint64
	syncBytes     *uint64
	syncRejRate   *uint64 // rejected by the 256MB/s token bucket
	syncRejSpace  *uint64 // rejected because the destination tier is full
	asyncPages    *uint64
	asyncBytes    *uint64
	asyncRej      *uint64
	retries       *uint64 // aborted copies retried by the transaction loop
	syncRejFault  *uint64 // sync migrations that exhausted their retries
	asyncRejFault *uint64 // async migrations that exhausted their retries
	syncRejAdm    *uint64 // sync migrations vetoed by admission control
	asyncRejAdm   *uint64 // async migrations vetoed by admission control
}

// Counters returns the policy-namespaced metric group (prefix =
// b.M.Pol.Name()). Valid after Attach.
func (b *Base) Counters() obs.Group {
	return b.M.Counters().Group(b.M.Pol.Name())
}

// Trace returns the machine's tracer; emitting on it is always safe
// (nil when tracing is disabled).
func (b *Base) Trace() *obs.Tracer { return b.M.Trace }

// mig lazily binds the shared migration counters. Lazy because Attach
// is often shadowed by the embedding policy, and because b.M.Pol (the
// namespace) is only set once the machine is constructed.
func (b *Base) mig() *migCounters {
	if b.mc == nil {
		g := b.Counters()
		b.mc = &migCounters{
			syncPages:     g.Counter("migrate_sync_pages"),
			syncBytes:     g.Counter("migrate_sync_bytes"),
			syncRejRate:   g.Counter("migrate_sync_rejected_rate"),
			syncRejSpace:  g.Counter("migrate_sync_rejected_space"),
			asyncPages:    g.Counter("migrate_async_pages"),
			asyncBytes:    g.Counter("migrate_async_bytes"),
			asyncRej:      g.Counter("migrate_async_rejected"),
			retries:       g.Counter("migrate_retries"),
			syncRejFault:  g.Counter("migrate_sync_rejected_fault"),
			asyncRejFault: g.Counter("migrate_async_rejected_fault"),
			syncRejAdm:    g.Counter("migrate_sync_rejected_admission"),
			asyncRejAdm:   g.Counter("migrate_async_rejected_admission"),
		}
	}
	return b.mc
}

// syncRateBPS is the critical-path migration budget in bytes/second.
const syncRateBPS = 256 << 20

// allowSync consumes rate-limit tokens for a critical-path migration,
// returning false when the budget is exhausted.
func (b *Base) allowSync(bytes uint64) bool {
	now := b.M.Now()
	if !b.rateInit {
		b.rateInit = true
		b.rateLastNS = now
		b.rateTokens = 4 << 20
	}
	b.rateTokens += float64(now-b.rateLastNS) / 1e9 * syncRateBPS
	if max := float64(32 << 20); b.rateTokens > max {
		b.rateTokens = max
	}
	b.rateLastNS = now
	if b.rateTokens < float64(bytes) {
		return false
	}
	b.rateTokens -= float64(bytes)
	return true
}

// Attach implements part of sim.Policy.
func (b *Base) Attach(m *sim.Machine) { b.M = m }

// BackgroundNS implements part of sim.Policy.
func (b *Base) BackgroundNS() uint64 { return b.BgNS }

// BusyCores implements part of sim.Policy.
func (b *Base) BusyCores() float64 { return 0 }

// Capabilities implements part of sim.Policy: baselines declare no
// contract deviations. Policies that deviate (the pinning references)
// override this — see the sim.Capability constants for the contract.
func (b *Base) Capabilities() sim.Capability { return 0 }

// SampleGate implements sim.FastSampled: a baseline without a sampler
// acts only on faults and on pages it watched (vm.AddressSpace.Watch)
// when it armed them or cleared their accessed flag.
func (b *Base) SampleGate() *pebs.Sampler { return nil }

// PlaceNew implements part of sim.Policy: default fast-first placement.
func (b *Base) PlaceNew(huge bool, vpn uint64) tier.ID { return tier.NoTier }

// Register records a newly faulted page in the policy registry.
func (b *Base) Register(pg *vm.Page) {
	b.Registry = append(b.Registry, pg)
}

// Compact drops dead pages from the registry (amortised).
func (b *Base) Compact() {
	live := b.Registry[:0]
	for _, pg := range b.Registry {
		if !pg.Dead() {
			live = append(live, pg)
		}
	}
	b.Registry = live
}

// Gate lazily binds the machine's admission gate (nil when the machine
// has no tier.Admission configured). Lazy for the same reason mig() is:
// b.M is only set once the machine is constructed.
func (b *Base) Gate() *AdmissionGate {
	if !b.agInit {
		b.agInit = true
		b.ag = NewAdmissionGate(b.M)
	}
	return b.ag
}

// admit applies admission control: the machine's configured
// tier.Admission policy through the gate when one is installed, else
// the default, which admits everything except async migrations during
// bandwidth-throttle windows (copying at 1/Nth speed wastes daemon
// budget on work that gets cheaper when the window closes); sync
// migrations always pass because the faulting thread is already
// stalled.
func (b *Base) admit(pg *vm.Page, dst tier.ID, sync bool) bool {
	if g := b.Gate(); g.Installed() {
		return g.Allow(pg, dst, sync)
	}
	if !sync && b.M.Faults.ThrottleActive(b.M.Now()) {
		return false
	}
	return true
}

// Transact drives one inline transactional migration on m, retrying
// aborted copies up to the fault plan's bound with exponential
// virtual-time backoff. It is the one retry loop: every policy's
// inline page migration goes through it (the background mover retries
// per task instead). The returned ns includes wasted copy work and
// backoff for every aborted attempt — with faults disabled aborts
// never occur and the cost equals the plain migration cost. The final
// status is MigrateAborted only after the retry budget is exhausted;
// retries counts the attempts repeated on the way.
func Transact(m *sim.Machine, pg *vm.Page, dst tier.ID) (ns uint64, st vm.MigrateStatus, retries uint64) {
	fp := m.Faults
	for attempt := 0; ; attempt++ {
		cns, cst := m.AS.MigrateTx(pg, dst)
		ns += cns
		if cst != vm.MigrateAborted || attempt >= fp.MaxRetries() {
			return ns, cst, retries
		}
		ns += fp.RetryBackoffNS(attempt)
		retries++
		m.Trace.Emit(obs.EvMigrateRetry, pg.VPN, pg.IsHuge(), pg.Bytes(), retries)
	}
}

// MigrateSync migrates on the critical path and returns the stall the
// application experiences (used by fault-handler promotion paths).
// Subject to admission control and the kernel-style migration rate
// limit. On a fault-aborted migration ok is false but the returned ns
// is the wasted copy and backoff time — the faulting thread stalled
// for that work even though the page never moved.
func (b *Base) MigrateSync(pg *vm.Page, dst tier.ID) (uint64, bool) {
	mc := b.mig()
	if !b.admit(pg, dst, true) {
		*mc.syncRejAdm++
		return 0, false
	}
	if !b.allowSync(pg.Bytes()) {
		*mc.syncRejRate++
		return 0, false
	}
	ns, st, retries := Transact(b.M, pg, dst)
	*mc.retries += retries
	switch st {
	case vm.MigrateNoSpace:
		*mc.syncRejSpace++
		return 0, false
	case vm.MigrateAborted:
		*mc.syncRejFault++
		return ns, false
	case vm.MigrateDenied:
		// The QoS arbiter vetoed the move below the policy — same
		// observable outcome as a rejected admission.
		*mc.syncRejAdm++
		return 0, false
	}
	*mc.syncPages += pg.Units()
	*mc.syncBytes += pg.Bytes()
	return ns + SyncExtraNS, true
}

// MigrateAsync migrates in the background, charging the daemon budget
// — including the wasted copies of aborted attempts. When the machine
// runs a background mover the migration is enqueued there instead of
// executing inline: the copy then happens later, against the mover's
// bandwidth budget, and true means "accepted", not "moved". A full
// mover queue falls back to the inline path so policies keep making
// progress under backpressure.
func (b *Base) MigrateAsync(pg *vm.Page, dst tier.ID) bool {
	mc := b.mig()
	if !b.admit(pg, dst, false) {
		*mc.asyncRejAdm++
		return false
	}
	if mv := b.M.Mover(); mv.Enabled() && mv.Enqueue(pg, dst) {
		*mc.asyncPages += pg.Units()
		*mc.asyncBytes += pg.Bytes()
		return true
	}
	ns, st, retries := Transact(b.M, pg, dst)
	*mc.retries += retries
	b.BgNS += ns
	if st != vm.MigrateOK {
		*mc.asyncRej++
		switch st {
		case vm.MigrateAborted:
			*mc.asyncRejFault++
		case vm.MigrateDenied:
			*mc.asyncRejAdm++
		}
		return false
	}
	*mc.asyncPages += pg.Units()
	*mc.asyncBytes += pg.Bytes()
	return true
}

// FastReserveFrames converts a fraction of the fast tier into frames.
func (b *Base) FastReserveFrames(frac float64) uint64 {
	return uint64(float64(b.M.Fast.CapacityFrames()) * frac)
}

// Headroom is frac of m's fast tier in frames, with a floor of two huge
// frames (capped at a quarter of the tier), so that policies keeping
// allocation head-room can actually absorb a 2MB THP fault — kernel
// watermarks are absolute, not purely proportional.
func Headroom(m *sim.Machine, frac float64) uint64 {
	capacity := m.Fast.CapacityFrames()
	floor := min(uint64(2*tier.SubPages), capacity/4)
	return max(uint64(float64(capacity)*frac), floor)
}

// HeadroomFrames is Headroom on the policy's machine.
func (b *Base) HeadroomFrames(frac float64) uint64 { return Headroom(b.M, frac) }

// demoteClock ages the fast tier's LRU clock-style from *hand until frac
// of head-room is free: a page whose accessed bit is set gets a second
// chance (the bit is cleared and the page watched), any other fast-tier
// page is demoted one hop. One call scans max(len(Registry)/div, 64)
// slots and charges 25ns each, unless the registry empties first.
func (b *Base) demoteClock(hand *int, frac float64, div int) {
	reserve := b.HeadroomFrames(frac)
	if b.M.Fast.FreeFrames() >= reserve || len(b.Registry) == 0 {
		return
	}
	scan := max(len(b.Registry)/div, 64)
	for i := 0; i < scan && b.M.Fast.FreeFrames() < reserve; i++ {
		if *hand >= len(b.Registry) {
			*hand = 0
			b.Compact()
			if len(b.Registry) == 0 {
				return
			}
		}
		pg := b.Registry[*hand]
		*hand++
		if pg.Dead() || pg.Tier != tier.FastTier {
			continue
		}
		if pg.PFlags&flagAccessed != 0 {
			pg.PFlags &^= flagAccessed
			b.M.AS.Watch(pg)
			continue
		}
		b.MigrateAsync(pg, b.M.DemoteTarget(pg.Tier))
	}
	b.BgNS += uint64(scan) * 25
}

// Rearmer re-arms hint faults round-robin over the registry at a fixed
// page rate, modelling AutoNUMA-style rate-limited VA-space scanning
// (the kernel unmaps a bounded window per scan period, not the whole
// address space).
type Rearmer struct {
	RatePerSec float64 // pages armed per second of virtual time
	idx        int
	lastNS     uint64
	carry      float64
	// SweepEpoch increments each time the round-robin wraps, letting
	// policies age per-sweep state (history vectors).
	SweepEpoch uint64
}

// Advance re-arms the next slice of pages proportional to elapsed time.
// The caller charges scan costs; Advance returns pages re-armed.
func (r *Rearmer) Advance(b *Base, now uint64) int {
	if r.RatePerSec == 0 {
		r.RatePerSec = 250_000
	}
	if r.lastNS == 0 || len(b.Registry) == 0 {
		r.lastNS = now
		return 0
	}
	elapsed := now - r.lastNS
	r.lastNS = now
	// The rate budget is in 4KB units: unmapping a huge page's PMD
	// covers 512 base pages' worth of scan window, exactly like the
	// kernel's scan-size accounting.
	r.carry += float64(elapsed) * r.RatePerSec / 1e9
	armed := 0
	guard := len(b.Registry) // at most one full sweep per call
	for r.carry >= 1 && guard > 0 {
		if r.idx >= len(b.Registry) {
			r.idx = 0
			r.SweepEpoch++
			b.Compact()
			if len(b.Registry) == 0 {
				return armed
			}
		}
		pg := b.Registry[r.idx]
		r.idx++
		guard--
		if pg.Dead() {
			continue
		}
		pg.PFlags |= flagArmed
		b.M.AS.Watch(pg)
		r.carry -= float64(pg.Units())
		armed++
	}
	if r.carry > 0 && guard == 0 {
		r.carry = 0
	}
	return armed
}
