package scenario

import (
	"strings"
	"testing"

	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// leakyPolicy declares the access bypass with no sampler and counts the
// OnAccess calls the machine still makes. At its first tick after the
// machine's 20,000th access it leaks one capacity-tier frame: allocated,
// mapped by no page.
type leakyPolicy struct {
	m        *sim.Machine
	calls    uint64
	leaked   bool
	declared bool
}

func (p *leakyPolicy) Name() string                  { return "leaky" }
func (p *leakyPolicy) Attach(m *sim.Machine)         { p.m = m }
func (p *leakyPolicy) PlaceNew(bool, uint64) tier.ID { return tier.NoTier }
func (p *leakyPolicy) BackgroundNS() uint64          { return 0 }
func (p *leakyPolicy) BusyCores() float64            { return 0 }
func (p *leakyPolicy) Capabilities() sim.Capability  { return 0 }

func (p *leakyPolicy) OnAccess(vm.TouchResult, uint64, bool) uint64 {
	p.calls++
	return 0
}

func (p *leakyPolicy) Tick(uint64) {
	if !p.leaked && p.m.TotalAccesses() >= 20_000 {
		if _, err := p.m.Cap.AllocBase(); err != nil {
			panic(err)
		}
		p.leaked = true
	}
}

// bypassing is leakyPolicy with its bypass declared.
type bypassing struct{ *leakyPolicy }

func (bypassing) SampleGate() *pebs.Sampler { return nil }

// TestProbeKeepsBypassAndCountsMachineAccesses: the probe forwards its
// policy's access bypass, and still audits on the machine's access
// count, which the bypass does not skip. The frame the policy leaks
// after access 20,000 is reported by the audit after access 32,768
// (the second of every 16,384) whether or not the bypass is declared,
// and the bypassing run calls OnAccess on few accesses.
func TestProbeKeepsBypassAndCountsMachineAccesses(t *testing.T) {
	const accesses = 40_000
	for _, declared := range []bool{true, false} {
		lp := &leakyPolicy{}
		var pol sim.Policy = lp
		if declared {
			pol = bypassing{lp}
		}
		probe := NewProbe(pol, 1, tier.FaultConfig{})
		if gate := sim.GateOf(probe); declared && gate != nil || !declared && gate == nil {
			t.Fatalf("declared=%t: probe forwards gate %p", declared, gate)
		}
		m := sim.NewMachine(sim.Config{FastBytes: 2 * tier.HugePageSize, CapBytes: 8 * tier.HugePageSize, THP: true, Seed: 1}, probe)
		r := m.Reserve(4 << 20)
		ops := make([]sim.Op, 1000)
		for i := range ops {
			ops[i] = sim.Op{VPN: r.BaseVPN + uint64(i*7)%r.Pages, Write: i%5 == 0}
		}
		for m.TotalAccesses() < accesses {
			m.AccessBatch(ops)
		}
		probe.FinalCheck()
		v := probe.Violations()
		if len(v) != 2 || !strings.Contains(v[0], "address-space audit after 32768 accesses: vm: capacity tier has") ||
			!strings.Contains(v[1], "final address-space audit") {
			t.Fatalf("declared=%t: violations %q, want the audit after 32768 accesses and the final audit", declared, v)
		}
		share := float64(lp.calls) / float64(m.TotalAccesses())
		if declared && share > 0.05 || !declared && share != 1 {
			t.Fatalf("declared=%t: OnAccess saw %.3f of accesses", declared, share)
		}
	}
}
