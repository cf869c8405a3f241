package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/vm"
	"memtis/internal/workload"
)

// fullPath hides a policy's sim.FastSampled declaration, so the machine
// takes Touch + OnAccess on every access. It counts OnAccess calls, and
// forwards HotSet so series points match the bare policy's.
type fullPath struct {
	sim.Policy
	calls *uint64
}

func (p fullPath) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	*p.calls++
	return p.Policy.OnAccess(tr, vpn, write)
}

func (p fullPath) HotSet() (hot, warm, cold uint64) {
	if hr, ok := p.Policy.(sim.HotSetReporter); ok {
		return hr.HotSet()
	}
	return 0, 0, 0
}

// declared is the bare policy as the machine sees it, bypass included.
type declared struct{ fullPath }

func (p declared) SampleGate() *pebs.Sampler { return sim.GateOf(p.Policy) }

// bypassRun is one run's observable output.
type bypassRun struct {
	res        sim.Result
	trace      []byte
	calls      uint64
	violations []string
}

// runBypassCell runs one cell with the bypass or on the full path. run
// drives a machine built from mc over a fresh workload and returns the
// workload's name.
func runBypassCell(t *testing.T, name string, mc sim.Config, full bool, run func(*testing.T, *sim.Machine) string) bypassRun {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	mc.Trace = obs.NewTracer(sink)
	var calls uint64
	var pol sim.Policy = fullPath{NewPolicy(name), &calls}
	if !full {
		pol = declared{pol.(fullPath)}
	}
	m := sim.NewMachine(mc, pol)
	res := m.Finish(run(t, m))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return bypassRun{res: res, trace: buf.Bytes(), calls: calls}
}

// TestBypassMatchesFullPath is the differential check on the access
// bypass (sim.FastSampled): every policy, run with its declared bypass
// and again with every access through Touch + OnAccess, must simulate
// the same result and emit the same event trace. A policy that forgets
// to Watch a page whose OnAccess-visible state it changed, or a sampler
// that is not declared, makes the two diverge. The bare runs must also
// actually bypass: OnAccess sees under 60% of their accesses.
func TestBypassMatchesFullPath(t *testing.T) {
	const accesses, maxShare = 300_000, 0.6
	type cellRun struct {
		label string
		mc    func(pol string) sim.Config
		run   func(*testing.T, *sim.Machine) string
	}
	cfg := DefaultConfig()
	var cells []cellRun
	for _, wl := range []string{"silo", "btree", "603.bwaves", "xsbench"} {
		cells = append(cells, cellRun{
			label: wl,
			mc: func(pol string) sim.Config {
				return MachineFor(workload.MustNew(wl).Spec(), Ratio1to8, pol, cfg)
			},
			run: func(_ *testing.T, m *sim.Machine) string {
				w := workload.MustNew(wl)
				w.Run(m, accesses)
				return w.Name()
			},
		})
	}
	_, rss := tenantEquivSpecs(3, false)
	cells = append(cells, cellRun{
		label: "3-tenant",
		mc:    func(string) sim.Config { return tenantMachine(rss, Ratio1to8, 42, 0) },
		run: func(t *testing.T, m *sim.Machine) string {
			specs, _ := tenantEquivSpecs(3, false)
			tn, err := tenant.New(tenant.Config{Tenants: specs, Slice: 4096})
			if err != nil {
				t.Fatal(err)
			}
			tn.Run(m, accesses)
			return tn.Name()
		},
	})

	for _, name := range AllPolicies {
		if _, ok := NewPolicy(name).(sim.FastSampled); !ok {
			t.Errorf("%s does not declare sim.FastSampled", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range cells {
				mc := c.mc(name)
				bare := runBypassCell(t, name, mc, false, c.run)
				full := runBypassCell(t, name, mc, true, c.run)
				if !reflect.DeepEqual(bare.res, full.res) {
					t.Errorf("%s: result with the bypass differs from the full path:\n bypass app_ns %d vm %+v\n full   app_ns %d vm %+v",
						c.label, bare.res.AppNS, bare.res.VM, full.res.AppNS, full.res.VM)
				}
				if !bytes.Equal(bare.trace, full.trace) {
					t.Errorf("%s: event trace with the bypass differs from the full path (%d vs %d bytes)",
						c.label, len(bare.trace), len(full.trace))
				}
				if full.calls != full.res.Accesses {
					t.Errorf("%s: full path ran OnAccess %d times for %d accesses", c.label, full.calls, full.res.Accesses)
				}
				if share := float64(bare.calls) / float64(bare.res.Accesses); share >= maxShare {
					t.Errorf("%s: OnAccess saw %.2f of accesses with the bypass, want < %.1f", c.label, share, maxShare)
				}
			}
		})
	}
}

// huntBypassSeeds are TestHuntBypassMatchesFullPath's hunt seeds, the
// first seeds that together cover every HuntShape combination, every
// AllPolicies name, and scenarios with a fault plan, with tenants, and
// with both.
var huntBypassSeeds = []uint64{0, 1, 2, 3, 4, 7, 8, 9, 11, 13, 15, 16, 17, 19, 23, 24, 26, 27, 29, 34}

// runHuntBypassCell runs seed's hunt cell (HuntScenario's first run,
// under the conformance probe) on a traced machine, over the policy as
// declared or, when full, with its bypass hidden.
func runHuntBypassCell(seed uint64, full bool) (bypassRun, error) {
	h, cfg, err := huntSetup(seed, 100_000)
	if err != nil {
		return bypassRun{}, err
	}
	sc, mc, err := huntMachine(h.Spec, h.Ratio, h.Depth, cfg)
	if err != nil {
		return bypassRun{}, err
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	mc.Trace = obs.NewTracer(sink)
	var calls uint64
	var pol sim.Policy = fullPath{NewPolicy(h.Policy), &calls}
	if !full {
		pol = declared{pol.(fullPath)}
	}
	probe := scenario.NewProbe(pol, seed, sc.FaultConfig())
	res := sim.Run(mc, probe, sc, cfg.Accesses)
	probe.FinalCheck()
	if err := sink.Flush(); err != nil {
		return bypassRun{}, err
	}
	return bypassRun{res: res, trace: buf.Bytes(), calls: calls, violations: probe.Violations()}, nil
}

// diffHuntBypass runs seed's hunt cell with the probe forwarding the
// policy's bypass and with the bypass hidden, and lists every way the
// two runs differ: result, probe violations, event trace, and a full
// run that skipped OnAccess. It returns the forwarded run too.
func diffHuntBypass(seed uint64) (bypassRun, []string, error) {
	fwd, err := runHuntBypassCell(seed, false)
	if err != nil {
		return fwd, nil, err
	}
	full, err := runHuntBypassCell(seed, true)
	if err != nil {
		return fwd, nil, err
	}
	var diffs []string
	if !reflect.DeepEqual(fwd.res, full.res) {
		diffs = append(diffs, fmt.Sprintf("result with the bypass differs from the full path: app_ns %d vs %d, vm %+v vs %+v",
			fwd.res.AppNS, full.res.AppNS, fwd.res.VM, full.res.VM))
	}
	if !slices.Equal(fwd.violations, full.violations) {
		diffs = append(diffs, fmt.Sprintf("probe violations with the bypass %q, on the full path %q", fwd.violations, full.violations))
	}
	if !bytes.Equal(fwd.trace, full.trace) {
		diffs = append(diffs, fmt.Sprintf("event trace with the bypass differs from the full path (%d vs %d bytes)",
			len(fwd.trace), len(full.trace)))
	}
	if full.calls != full.res.Accesses {
		diffs = append(diffs, fmt.Sprintf("full path ran OnAccess %d times for %d accesses", full.calls, full.res.Accesses))
	}
	return fwd, diffs, nil
}

// TestHuntBypassMatchesFullPath is TestBypassMatchesFullPath over the
// conformance hunt: each seed's probed cell, run with the probe
// forwarding its policy's bypass and again with every access through
// Touch + OnAccess, must simulate the same result, record the same
// violations and emit the same event trace. The probe's periodic checks
// run on the machine's access count, so they see the same states on
// both paths; its stall check sees only the accesses the bypass keeps,
// and the contract makes every other one stall-free. The forwarded
// runs must actually bypass: OnAccess sees under 60% of their accesses.
func TestHuntBypassMatchesFullPath(t *testing.T) {
	const maxShare = 0.6
	type shape struct {
		depth          int
		admission, mov bool
	}
	shapes, pols := map[shape]bool{}, map[string]bool{}
	faults, tenants, both := false, false, false
	for _, seed := range huntBypassSeeds {
		pol, _ := HuntParams(seed)
		d, a, m, _ := HuntShape(seed)
		spec := scenario.Generate(seed)
		f, mt := spec.Faults != "", len(spec.Tenants) > 0
		shapes[shape{d, a, m}], pols[pol] = true, true
		faults, tenants, both = faults || f, tenants || mt, both || f && mt
	}
	if len(shapes) != 12 || len(pols) != len(AllPolicies) || !faults || !tenants || !both {
		t.Fatalf("seeds cover %d of 12 shapes and %d of %d policies; fault plan %t, tenants %t, both %t",
			len(shapes), len(pols), len(AllPolicies), faults, tenants, both)
	}
	for _, seed := range huntBypassSeeds {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			fwd, diffs, err := diffHuntBypass(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diffs {
				t.Errorf("hunt seed %d (%s): %s", seed, fwd.res.Policy, d)
			}
			if share := float64(fwd.calls) / float64(fwd.res.Accesses); share >= maxShare {
				t.Errorf("hunt seed %d (%s): OnAccess saw %.2f of accesses with the bypass, want < %.1f",
					seed, fwd.res.Policy, share, maxShare)
			}
		})
	}
}

// FuzzHuntBypass explores the hunt seeds beyond
// TestHuntBypassMatchesFullPath's list: any difference between a
// seed's probed cell with its policy's bypass and on the full path
// fails it.
//
// Run with: go test -run '^$' -fuzz FuzzHuntBypass ./internal/bench
func FuzzHuntBypass(f *testing.F) {
	f.Add(uint64(5))
	f.Add(uint64(6))
	f.Fuzz(func(t *testing.T, seed uint64) {
		_, diffs, err := diffHuntBypass(seed)
		if err != nil {
			t.Fatalf("hunt seed %#x: %v", seed, err)
		}
		for _, d := range diffs {
			t.Errorf("hunt seed %#x: %s", seed, d)
		}
	})
}
