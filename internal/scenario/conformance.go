package scenario

import (
	"fmt"

	"memtis/internal/pebs"
	"memtis/internal/policy"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// maxViolations bounds what one probe records: a pathological run that
// violates a bound on every access must not buffer millions of strings.
const maxViolations = 32

// Probe wraps a policy with the cross-policy conformance contract (the
// same invariants as internal/policy's suite): critical-path stalls
// bounded by the fault-aware policy.MaxSyncStallNS, BackgroundNS
// monotonic, PlaceNew never targeting a tier that cannot hold the page
// (unless the policy declares CapPinnedPlacement), reported hot sets
// within RSS, and — via the memory's periodic vm.Memory.Audit — no page lost,
// leaked or double-mapped across aborted migrations. Violations are
// recorded, not panicked, and every message carries the scenario seed,
// so a fuzz failure is reproducible from the test log alone.
//
// The probe keeps its policy's access bypass (sim.FastSampled): its
// OnAccess adds only the stall check, which an access the bypass skips
// passes by the contract, and its periodic checks run on the machine's
// access count (sim.Machine.EveryAccesses), not on OnAccess calls.
type Probe struct {
	inner sim.Policy
	m     *sim.Machine

	seed       uint64
	maxStall   uint64
	auditEvery uint64

	lastBG     uint64
	violations []string
	dropped    int
}

// checkEvery is the probe's check period in machine-wide accesses; the
// audit periods are multiples of it.
const checkEvery = 1024

// NewProbe wraps a policy for a scenario run derived from seed. The
// stall bound and audit cadence are derived from the fault plan: a
// faulting scenario gets the retry-aware bound and frequent audits.
func NewProbe(inner sim.Policy, seed uint64, fc tier.FaultConfig) *Probe {
	p := &Probe{
		inner:    inner,
		seed:     seed,
		maxStall: policy.MaxSyncStallNS(fc),
	}
	if fc.Enabled() {
		p.auditEvery = 4096
	} else {
		p.auditEvery = 16384
	}
	return p
}

// violatef records one violation, tagged with the scenario seed.
func (p *Probe) violatef(format string, args ...interface{}) {
	if len(p.violations) >= maxViolations {
		p.dropped++
		return
	}
	msg := fmt.Sprintf("scenario seed=%#x policy=%s: ", p.seed, p.inner.Name()) +
		fmt.Sprintf(format, args...)
	p.violations = append(p.violations, msg)
}

// Violations returns the recorded contract violations (empty for a
// conforming run). Call after the run and after FinalCheck.
func (p *Probe) Violations() []string {
	if p.dropped > 0 {
		return append(p.violations[:len(p.violations):len(p.violations)],
			fmt.Sprintf("scenario seed=%#x policy=%s: ... %d further violations dropped",
				p.seed, p.inner.Name(), p.dropped))
	}
	return p.violations
}

// Name implements sim.Policy.
func (p *Probe) Name() string { return p.inner.Name() }

// Attach implements sim.Policy, and schedules the periodic checks.
func (p *Probe) Attach(m *sim.Machine) {
	p.m = m
	p.inner.Attach(m)
	m.EveryAccesses(checkEvery, p.periodic)
}

// SampleGate implements sim.FastSampled with the inner policy's gate.
func (p *Probe) SampleGate() *pebs.Sampler { return sim.GateOf(p.inner) }

// PlaceNew implements sim.Policy, checking the full-tier contract.
func (p *Probe) PlaceNew(huge bool, vpn uint64) tier.ID {
	id := p.inner.PlaceNew(huge, vpn)
	if p.inner.Capabilities().Has(sim.CapPinnedPlacement) {
		return id
	}
	need := uint64(1)
	if huge {
		need = tier.SubPages
	}
	switch {
	case id == tier.NoTier:
	case id >= tier.FastTier && int(id) < p.m.Depth():
		if free := p.m.Tier(id).FreeFrames(); free < need {
			p.violatef("PlaceNew targeted the %s tier with %d free frames (need %d)", id, free, need)
		}
	default:
		p.violatef("PlaceNew returned unknown tier %v", id)
	}
	return id
}

// OnAccess implements sim.Policy, checking the stall bound.
func (p *Probe) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	stall := p.inner.OnAccess(tr, vpn, write)
	if stall > p.maxStall {
		p.violatef("OnAccess stalled the app %d ns (bound %d)", stall, p.maxStall)
	}
	return stall
}

// periodic runs after every checkEvery-th machine-wide access: the
// monotonicity and hot-set check, and every auditEvery accesses the
// address-space audit.
func (p *Probe) periodic() {
	p.check("periodic check")
	if n := p.m.TotalAccesses(); n%p.auditEvery == 0 {
		if err := p.m.Audit(); err != nil {
			p.violatef("address-space audit after %d accesses: %v", n, err)
		}
	}
}

// Tick implements sim.Policy.
func (p *Probe) Tick(now uint64) {
	p.inner.Tick(now)
	p.check("Tick")
}

// BackgroundNS implements sim.Policy.
func (p *Probe) BackgroundNS() uint64 { return p.inner.BackgroundNS() }

// BusyCores implements sim.Policy.
func (p *Probe) BusyCores() float64 { return p.inner.BusyCores() }

// Capabilities implements sim.Policy.
func (p *Probe) Capabilities() sim.Capability { return p.inner.Capabilities() }

// check asserts the monotonicity and hot-set invariants.
func (p *Probe) check(where string) {
	if bg := p.inner.BackgroundNS(); bg < p.lastBG {
		p.violatef("BackgroundNS went backwards in %s: %d -> %d", where, p.lastBG, bg)
	} else {
		p.lastBG = bg
	}
	if bc := p.inner.BusyCores(); bc < 0 {
		p.violatef("BusyCores = %v", bc)
	}
	if hr, ok := p.inner.(sim.HotSetReporter); ok {
		hot, warm, cold := hr.HotSet()
		rss := p.m.RSSBytes()
		// Slack for in-flight split/collapse histogram bookkeeping.
		const slack = 2 * tier.HugePageSize
		if hot > rss+slack || hot+warm+cold > rss+slack {
			p.violatef("hot set exceeds RSS in %s: hot=%d warm=%d cold=%d rss=%d",
				where, hot, warm, cold, rss)
		}
	}
}

// FinalCheck runs the end-of-run invariants: a last audit and
// monotonicity check, BusyCores below the machine's core count, and —
// for PEBS-sampled policies — the paper's ksampled CPU budget (§4.4,
// ~3% of one core; 2x slack covers the adjustment transient of short
// runs) plus the exported bg_share_mcores gauge (DESIGN.md §8).
func (p *Probe) FinalCheck() {
	p.check("final")
	if err := p.m.Audit(); err != nil {
		p.violatef("final address-space audit: %v", err)
	}
	if bc := p.inner.BusyCores(); bc >= sim.Cores {
		p.violatef("BusyCores %.2f >= machine cores %d", bc, sim.Cores)
	}
	if sp, ok := p.inner.(interface{ Sampler() *pebs.Sampler }); ok {
		// The budget is a steady-state property: the controller starts at
		// the paper's aggressive initial period and needs a few windows to
		// throttle, so a generated scenario short enough (in virtual time)
		// to end mid-transient is exempt — the average would measure the
		// documented convergence, not a violation.
		const minSamplerWindows = 16
		if s := sp.Sampler(); s.Adjustments() >= minSamplerWindows {
			if cpu := s.AvgCPUUsage(); cpu > 0.06 {
				p.violatef("sampler consumed %.1f%% of a core over %d windows, budget is 3%%",
					cpu*100, s.Adjustments())
			}
		}
		found := false
		for _, mt := range p.m.Counters().Snapshot() {
			if mt.Name == p.inner.Name()+"/bg_share_mcores" {
				found = true
			}
		}
		if !found {
			p.violatef("bg_share_mcores gauge missing from machine counters")
		}
	}
}

var _ sim.Policy = (*Probe)(nil)
