package bench

import (
	"bytes"
	"reflect"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/pebs"
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

func (p declared) SampleGate() *pebs.Sampler { return p.Policy.(sim.FastSampled).SampleGate() }

// bypassRun is one run's observable output.
type bypassRun struct {
	res   sim.Result
	trace []byte
	calls uint64
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
