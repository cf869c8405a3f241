package policy

import (
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// This file is the policy-side half of the admission layer: the
// tier.Admission interface only *decides*, while the AdmissionGate here
// builds each request from the page, the topology's hop-cost tables and
// the machine clock, tallies verdicts, and — the part that makes the
// layer falsifiable — settles rejected promotions against what actually
// happened afterwards. A rejection was *vindicated* when the page died
// or cooled before its predicted benefit covered the copy cost
// (admission/rejected_wasted), and *regretted* when the page stayed hot
// enough that the move would have paid for itself
// (admission/rejected_regret).

// verdictWindowNS is how long a rejected promotion is watched before
// its verdict is settled: long enough for a genuinely hot page to
// accumulate the accesses the benefit model predicted, short enough to
// bound the ledger.
const verdictWindowNS = 10_000_000 // 10ms of virtual time

// maxPendingVerdicts bounds the settlement ledger; rejections beyond
// the bound are counted but not watched (the counters are diagnostics,
// not part of the migration contract).
const maxPendingVerdicts = 4096

// pendingVerdict is one rejected promotion awaiting settlement.
type pendingVerdict struct {
	pg       *vm.Page
	src      tier.ID
	hot0     uint64 // page hotness at rejection time
	gainNS   int64  // per-access benefit the move would have bought
	costNS   uint64 // copy cost the rejection saved
	deadline uint64 // virtual time at which the verdict settles
}

// AdmissionGate applies a tier.Admission policy at the migration choke
// points. A nil *AdmissionGate is valid and means "no admission policy
// installed": Allow reports that the caller should fall back to its
// historical default behaviour. Construct one per machine via
// NewAdmissionGate; both the baseline Base helpers and the MEMTIS core
// share this type so every policy reports admission verdicts the same
// way.
type AdmissionGate struct {
	m   *sim.Machine
	pol tier.Admission

	pending []pendingVerdict
	head    int

	ctrAdmitted *uint64
	ctrRejected *uint64
	ctrWasted   *uint64
	ctrRegret   *uint64
}

// NewAdmissionGate builds the gate for m's configured admission policy,
// registering the admission/ counter group. It returns nil — and
// registers nothing — when the machine has no Admission configured, so
// default-configured runs stay byte-identical.
func NewAdmissionGate(m *sim.Machine) *AdmissionGate {
	if m.Cfg.Admission == nil {
		return nil
	}
	g := m.Counters().Group("admission")
	return &AdmissionGate{
		m:           m,
		pol:         m.Cfg.Admission,
		ctrAdmitted: g.Counter("admitted"),
		ctrRejected: g.Counter("rejected"),
		ctrWasted:   g.Counter("rejected_wasted"),
		ctrRegret:   g.Counter("rejected_regret"),
	}
}

// Installed reports whether an admission policy is active (false on a
// nil gate), i.e. whether Allow's verdicts are meaningful.
func (g *AdmissionGate) Installed() bool { return g != nil }

// Request builds the admission request for moving pg to dst, pricing
// the copy over every hop between the tiers at the current throttle
// factor. Exported so sweeps and tests can score hypothetical moves
// with the same arithmetic the gate uses.
func (g *AdmissionGate) Request(pg *vm.Page, dst tier.ID, sync bool) tier.AdmissionRequest {
	m := g.m
	now := m.Now()
	return tier.AdmissionRequest{
		Src:            pg.Tier,
		Dst:            dst,
		Bytes:          pg.Bytes(),
		Huge:           pg.IsHuge(),
		Hotness:        pg.Count,
		CostNS:         m.HopCostNS(pg.Tier, dst, pg.IsHuge()) * m.Faults.CopyCostFactor(now),
		GainNS:         m.AccessGainNS(pg.Tier, dst),
		Sync:           sync,
		ThrottleActive: m.Faults.ThrottleActive(now),
		Now:            now,
	}
}

// Allow scores one migration request against the admission policy and
// tallies the verdict. Rejected asynchronous promotions enter the
// settlement ledger so rejected_wasted/rejected_regret can later report
// whether the rejection was right. Callers must only invoke Allow on a
// non-nil gate (Installed).
func (g *AdmissionGate) Allow(pg *vm.Page, dst tier.ID, sync bool) bool {
	g.Settle(g.m.Now())
	r := g.Request(pg, dst, sync)
	if g.pol.Admit(r) {
		*g.ctrAdmitted++
		return true
	}
	*g.ctrRejected++
	if !sync && r.GainNS > 0 && len(g.pending)-g.head < maxPendingVerdicts {
		g.pending = append(g.pending, pendingVerdict{
			pg:       pg,
			src:      pg.Tier,
			hot0:     pg.Count,
			gainNS:   r.GainNS,
			costNS:   r.CostNS,
			deadline: r.Now + verdictWindowNS,
		})
	}
	return false
}

// Settle resolves every ledger entry whose deadline has passed. The
// verdict compares the benefit the page *realised* during the window —
// the accesses it accumulated since rejection times the latency the
// move would have saved on each — against the copy cost the rejection
// avoided. Pages that died, moved away from the scored hop, or cooled
// below their predicted rate vindicate the rejection (rejected_wasted:
// the migration would not have paid off); pages still hot enough to
// cover the cost mean the gate was too strict (rejected_regret).
func (g *AdmissionGate) Settle(now uint64) {
	if g == nil {
		return
	}
	for g.head < len(g.pending) {
		v := &g.pending[g.head]
		if now < v.deadline {
			break
		}
		switch {
		case v.pg.Dead() || v.pg.Tier != v.src:
			// Died, or some other path moved it: the scored migration
			// could never have been charged as predicted.
			*g.ctrWasted++
		default:
			var realized uint64
			if v.pg.Count > v.hot0 {
				realized = v.pg.Count - v.hot0
			}
			if realized*uint64(v.gainNS) >= v.costNS {
				*g.ctrRegret++
			} else {
				*g.ctrWasted++
			}
		}
		g.head++
	}
	if g.head > 64 && g.head*2 > len(g.pending) {
		n := copy(g.pending, g.pending[g.head:])
		g.pending = g.pending[:n]
		g.head = 0
	}
}
