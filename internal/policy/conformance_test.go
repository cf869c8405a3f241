// Cross-policy conformance suite: every policy the bench factory can
// construct is run through a canned workload behind scenario.Probe,
// which asserts the sim.Policy contract at each callback and audits the
// address space periodically and at the end. The suite lives in an
// external test package so it can use internal/bench's factory (bench
// imports policy, so the plain package would be a cycle); a newly
// registered policy is picked up automatically via bench.AllPolicies.
package policy_test

import (
	"testing"

	"memtis/internal/bench"
	"memtis/internal/pebs"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// runProbed runs pol over the silo workload on machine mc behind the
// conformance probe, whose stall bound and audit cadence follow the
// machine's fault plan, and fails the test on every violation the
// probe records, its final checks included.
func runProbed(t *testing.T, pol sim.Policy, mc sim.Config, accesses uint64) sim.Result {
	t.Helper()
	p := scenario.NewProbe(pol, uint64(mc.Seed), mc.Faults)
	res := sim.Run(mc, p, workload.MustNew("silo"), accesses)
	p.FinalCheck()
	for _, v := range p.Violations() {
		t.Error(v)
	}
	if res.Accesses != accesses {
		t.Errorf("ran %d accesses, want %d", res.Accesses, accesses)
	}
	return res
}

// TestPolicyConformanceUnderFaults reruns the conformance suite with
// aggressive fault injection: 5% of migration copies abort, bandwidth
// throttling quadruples copy cost for 20% of each window, and the
// capacity tier suffers periodic stall bursts. The probe then holds
// the failure-model invariants of DESIGN.md §6: no policy loses, leaks
// or double-maps a page across aborted migrations (an audit every 4096
// accesses and at the end), and critical-path stalls stay within the
// retry-aware bound.
func TestPolicyConformanceUnderFaults(t *testing.T) {
	fc := tier.FaultConfig{
		MigrateFailPpm:   50_000, // 5% of copies abort
		ThrottlePeriodNS: 2_000_000,
		ThrottleDutyNS:   400_000,
		ThrottleFactor:   4,
		StallPeriodNS:    1_000_000,
		StallDutyNS:      100_000,
		StallTier:        tier.CapacityTier,
		StallNS:          200,
	}
	spec := workload.MustNew("silo").Spec()
	cfg := bench.DefaultConfig()
	cfg.Accesses = 150_000
	cfg.Faults = fc
	for _, name := range bench.AllPolicies {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mc := bench.MachineFor(spec, bench.Ratio1to8, name, cfg)
			res := runProbed(t, bench.NewPolicy(name), mc, cfg.Accesses)
			// Policies with working demotion must have actually
			// exercised the abort path — otherwise this suite proves
			// nothing. (AutoNUMA is excluded: with no demotion the fast
			// tier stays full and promotions die at reserve time,
			// before any copy can abort.)
			if name == "memtis" || name == "hemem" {
				var aborts uint64
				for _, mt := range res.Counters {
					if mt.Name == "fault/migrate_aborts" {
						aborts = mt.Value
					}
				}
				if aborts == 0 {
					t.Errorf("%s: no migration aborts at a 5%% copy-fault rate", name)
				}
			}
		})
	}
}

// TestPolicyConformanceNTier reruns the conformance suite on a
// four-tier hierarchy (DRAM > CXL > NVM > Far) with 5% of migration
// copies aborting, the benefit admission gate installed and the
// rate-limited background mover running — the full DESIGN.md §11
// configuration. Beyond the probe's contract and transactional audit,
// it asserts the mover's budget invariant: the bytes it moved plus the
// bytes it wasted on aborted copies never exceed the bytes its token
// bucket granted.
func TestPolicyConformanceNTier(t *testing.T) {
	fc := tier.FaultConfig{MigrateFailPpm: 50_000}

	spec := workload.MustNew("silo").Spec()
	cfg := bench.DefaultConfig()
	cfg.Accesses = 150_000
	cfg.Faults = fc
	topo, err := bench.TopologyForDepth(spec.RSSBytes(), bench.Ratio1to8, 4, cfg.CapKind)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	cfg.Admission = tier.BenefitAdmission{}
	cfg.Mover = tier.MoverConfig{BytesPerWindow: 8 << 20}
	for _, name := range bench.AllPolicies {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mc := bench.MachineFor(spec, bench.Ratio1to8, name, cfg)
			res := runProbed(t, bench.NewPolicy(name), mc, cfg.Accesses)
			cnt := map[string]uint64{}
			for _, mt := range res.Counters {
				cnt[mt.Name] = mt.Value
			}
			if spent := cnt["mover/moved_bytes"] + cnt["mover/wasted_bytes"]; spent > cnt["mover/granted_bytes"] {
				t.Errorf("mover spent %d bytes of a %d-byte grant", spent, cnt["mover/granted_bytes"])
			}
		})
	}
}

// TestPolicyConformance runs every registered policy over the silo
// workload (huge and base pages, allocation churn via FreeRegion) at a
// constrained 1:8 ratio, with the probe asserting the contract
// throughout the run and auditing the address space every 16384
// accesses.
func TestPolicyConformance(t *testing.T) {
	spec := workload.MustNew("silo").Spec()
	cfg := bench.DefaultConfig()
	cfg.Accesses = 150_000
	for _, name := range bench.AllPolicies {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mc := bench.MachineFor(spec, bench.Ratio1to8, name, cfg)
			pol := bench.NewPolicy(name)
			res := runProbed(t, pol, mc, cfg.Accesses)
			// A wake-driven daemon's busy-core estimate must stay below
			// the machine: BusyCores is a share of real cores, not a
			// multiplier.
			if bc := pol.BusyCores(); bc >= sim.Cores {
				t.Errorf("%s: BusyCores %.2f >= machine cores %d", name, bc, sim.Cores)
			}
			if sp, ok := pol.(interface{ Sampler() *pebs.Sampler }); ok {
				// Paper §4.4: ksampled self-throttles to ~3% of one CPU.
				// Allow 2x slack for the adjustment transient at run start.
				// Unlike the probe's final check, this holds however few
				// controller windows the run spans.
				if cpu := sp.Sampler().AvgCPUUsage(); cpu > 0.06 {
					t.Errorf("%s: sampler consumed %.1f%% of a core, budget is 3%%", name, cpu*100)
				}
				// The derived background share must be exported for runs
				// to audit (DESIGN.md §8).
				found := false
				for _, mt := range res.Counters {
					if mt.Name == name+"/bg_share_mcores" {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: bg_share_mcores gauge missing from result counters", name)
				}
			}
		})
	}
}
