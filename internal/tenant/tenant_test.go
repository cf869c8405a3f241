package tenant_test

import (
	"fmt"
	"testing"

	"memtis/internal/bench"
	"memtis/internal/obs"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// synth is a minimal deterministic workload: reserve a region, then
// sweep it with writes until the budget is exhausted (under the tenant
// scheduler the per-space count never reaches the global budget, so the
// scheduler's stop at the global budget is what ends it — exactly the
// contract real workloads follow).
type synth struct {
	name  string
	bytes uint64
}

func (s *synth) Name() string { return s.name }

func (s *synth) Run(m *sim.Machine, accesses uint64) { workload.Run(m, s, accesses) }

func (s *synth) Stream(m *sim.Machine, budget uint64) workload.Stream {
	r := m.Reserve(s.bytes)
	i := uint64(0)
	return workload.Sweep(func() (uint64, bool) {
		i++
		return r.BaseVPN + (i-1)%r.Pages, (i-1)%4 != 3
	}, budget, workload.Unbounded, 1)
}

func smallConfig(seed int64) sim.Config {
	return sim.Config{
		FastBytes: 8 * tier.HugePageSize,
		CapBytes:  64 * tier.HugePageSize,
		CapKind:   tier.NVM,
		THP:       true,
		Seed:      seed,
	}
}

// configFor sizes a machine for the combined RSS of a tenant mix, the
// same 1:3 shape the workload tests use.
func configFor(seed int64, rss uint64) sim.Config {
	return sim.Config{
		FastBytes: rss/3 + 2*tier.HugePageSize,
		CapBytes:  rss + rss/4 + 16*tier.HugePageSize,
		CapKind:   tier.NVM,
		THP:       true,
		Seed:      seed,
	}
}

func TestValidate(t *testing.T) {
	w := &synth{name: "w", bytes: tier.HugePageSize}
	cases := []struct {
		name string
		cfg  tenant.Config
	}{
		{"empty", tenant.Config{}},
		{"nil workload", tenant.Config{Tenants: []tenant.Spec{{}}}},
		{"all exit", tenant.Config{Tenants: []tenant.Spec{{Workload: w, ExitFrac: 0.5}}}},
		{"spawn after exit", tenant.Config{Tenants: []tenant.Spec{
			{Workload: w},
			{Workload: w, SpawnFrac: 0.6, ExitFrac: 0.5},
		}}},
		{"shrink before grow", tenant.Config{Tenants: []tenant.Spec{
			{Workload: w, GrowBytes: tier.HugePageSize, GrowFrac: 0.5, ShrinkFrac: 0.2},
		}}},
		{"dup names", tenant.Config{Tenants: []tenant.Spec{
			{Name: "a", Workload: w}, {Name: "a", Workload: w},
		}}},
		{"frac out of range", tenant.Config{Tenants: []tenant.Spec{
			{Workload: w, SpawnFrac: 1.5},
		}}},
	}
	for _, c := range cases {
		if _, err := tenant.New(c.cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", c.name)
		}
	}
}

func TestTwoTenantsExactBudget(t *testing.T) {
	r, err := tenant.New(tenant.Config{Tenants: []tenant.Spec{
		{Name: "a", Weight: 3, Workload: &synth{name: "a", bytes: 4 * tier.HugePageSize}},
		{Name: "b", Weight: 1, Workload: &synth{name: "b", bytes: 4 * tier.HugePageSize}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(smallConfig(7), bench.NewPolicy("memtis"))
	const budget = 300_000
	r.Run(m, budget)
	if got := m.TotalAccesses(); got != budget {
		t.Fatalf("machine issued %d accesses, want exactly %d", got, budget)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	res := m.Finish(r.Name())
	if len(res.Tenants) != 2 {
		t.Fatalf("got %d tenant rows, want 2", len(res.Tenants))
	}
	var sum uint64
	for _, tr := range res.Tenants {
		if tr.Accesses == 0 {
			t.Errorf("tenant %s issued no accesses", tr.Name)
		}
		sum += tr.Accesses
	}
	if sum != budget {
		t.Fatalf("tenant accesses sum to %d, want %d", sum, budget)
	}
	// Weight 3 vs 1 should skew the slice draw visibly.
	if res.Tenants[0].Accesses <= res.Tenants[1].Accesses {
		t.Errorf("weight-3 tenant ran %d accesses, weight-1 ran %d; want a skew toward the heavier tenant",
			res.Tenants[0].Accesses, res.Tenants[1].Accesses)
	}
}

func TestSingleTenantStaysSingleSpace(t *testing.T) {
	r, err := tenant.New(tenant.Config{Tenants: []tenant.Spec{
		{Name: "solo", Workload: workload.MustNew("silo")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(configFor(11, workload.MustNew("silo").Spec().RSSBytes()), bench.NewPolicy("memtis"))
	r.Run(m, 100_000)
	if m.Multi() || m.NumSpaces() != 1 {
		t.Fatalf("one tenant flipped the machine into multi-space mode (%d spaces)", m.NumSpaces())
	}
	res := m.Finish(r.Name())
	if res.Accesses != 100_000 {
		t.Fatalf("issued %d accesses, want 100000", res.Accesses)
	}
	if len(res.Tenants) != 0 {
		t.Fatalf("single-space run emitted %d tenant rows; compatibility path requires none", len(res.Tenants))
	}
}

func TestChurnLifecycle(t *testing.T) {
	m := sim.NewMachine(smallConfig(3), bench.NewPolicy("memtis"))
	var events []string
	cfg := tenant.Config{
		Tenants: []tenant.Spec{
			{Name: "base", Workload: &synth{name: "base", bytes: 2 * tier.HugePageSize},
				GrowBytes: 2 * tier.HugePageSize, GrowFrac: 0.3, ShrinkFrac: 0.7},
			{Name: "late", Workload: &synth{name: "late", bytes: 2 * tier.HugePageSize},
				SpawnFrac: 0.2, ExitFrac: 0.6},
		},
		OnChurn: func(k tenant.ChurnKind, id int) {
			events = append(events, fmt.Sprintf("%s:%d", k, id))
			if err := m.Audit(); err != nil {
				t.Fatalf("audit after %s of tenant %d: %v", k, id, err)
			}
		},
	}
	r, err := tenant.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 400_000
	r.Run(m, budget)
	// Events fire in threshold order: 0.2 spawn, 0.3 grow, 0.6 exit, 0.7 shrink.
	want := []string{"spawn:1", "grow:0", "exit:1", "shrink:0"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("churn events %v, want %v", events, want)
	}
	if got := m.TotalAccesses(); got != budget {
		t.Fatalf("machine issued %d accesses, want %d", got, budget)
	}
	// The exited tenant's space must be fully released.
	if ru := m.Space(1).ResidentUnits(); ru != 0 {
		t.Fatalf("exited tenant still holds %d resident units", ru)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		r, err := tenant.New(tenant.Config{Tenants: []tenant.Spec{
			{Name: "a", Workload: &synth{name: "a", bytes: 4 * tier.HugePageSize}},
			{Name: "b", Weight: 4, Workload: workload.MustNew("btree"),
				SpawnFrac: 0.1, ExitFrac: 0.8},
			{Name: "c", Workload: &synth{name: "c", bytes: 2 * tier.HugePageSize},
				GrowBytes: tier.HugePageSize, GrowFrac: 0.4},
		}})
		if err != nil {
			t.Fatal(err)
		}
		rss := workload.MustNew("btree").Spec().RSSBytes() + 8*tier.HugePageSize
		m := sim.NewMachine(configFor(99, rss), bench.NewPolicy("memtis"))
		r.Run(m, 250_000)
		res := m.Finish(r.Name())
		out := fmt.Sprintf("%+v\n", res.Tenants)
		for _, mt := range m.Counters().Snapshot() {
			out += fmt.Sprintf("%s=%d\n", mt.Name, mt.Value)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different runs\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

func TestFloorCountersPublished(t *testing.T) {
	r, err := tenant.New(tenant.Config{Tenants: []tenant.Spec{
		{Name: "vip", FloorBytes: 4 * tier.HugePageSize, Weight: 1,
			Workload: &synth{name: "vip", bytes: 6 * tier.HugePageSize}},
		{Name: "noisy", Weight: 8, Workload: workload.MustNew("silo")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine(configFor(21, workload.MustNew("silo").Spec().RSSBytes()+8*tier.HugePageSize), bench.NewPolicy("memtis"))
	r.Run(m, 300_000)
	if v, ok := m.Counters().Value("tenant/vip/floor_violations"); !ok {
		t.Fatal("floor_violations counter missing")
	} else if v != 0 {
		t.Fatalf("vip tenant suffered %d floor violations", v)
	}
	for _, name := range []string{"fast_pages", "resident_pages", "accesses"} {
		if _, ok := m.Counters().Value("tenant/vip/" + name); !ok {
			t.Fatalf("tenant/vip/%s missing from the registry", name)
		}
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoSlice pins the quantum schedule: the fixed default through
// 64 tenants, then scaled so one full rotation fits the 64-tenant
// fairness window, floored at MinSlice for the largest mixes.
func TestAutoSlice(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{1, tenant.DefaultSlice},
		{64, tenant.DefaultSlice},
		{128, 4096},
		{256, 2048},
		{1024, 512},
		{4096, tenant.MinSlice},
	}
	for _, c := range cases {
		if got := tenant.AutoSlice(c.n); got != c.want {
			t.Errorf("AutoSlice(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// switchSink collects tenant-switch events straight off the tracer.
type switchSink struct{ aux []uint64 }

func (s *switchSink) Emit(e obs.Event) {
	if e.Kind == obs.EvTenantSwitch {
		s.aux = append(s.aux, e.Aux)
	}
}

// TestAutoSliceTightensLargeMixes is the behavioural side of the
// schedule: at 1024 tenants every scheduled slice observed on the
// trace is at most the tightened 512-access quantum, and the rotation
// produces far more, shorter slices than the fixed default would —
// the fairness window the quantum scaling exists to protect.
func TestAutoSliceTightensLargeMixes(t *testing.T) {
	const n = 1024
	specs := make([]tenant.Spec, n)
	for i := range specs {
		specs[i] = tenant.Spec{
			Name:     fmt.Sprintf("t%04d", i),
			Workload: &synth{name: fmt.Sprintf("t%04d", i), bytes: 16 * tier.BasePageSize},
		}
	}
	r, err := tenant.New(tenant.Config{Tenants: specs})
	if err != nil {
		t.Fatal(err)
	}
	sink := &switchSink{}
	m := sim.NewMachine(sim.Config{
		FastBytes: 16 << 20,
		CapBytes:  256 << 20,
		CapKind:   tier.NVM,
		Seed:      7,
		Trace:     obs.NewTracer(sink),
	}, bench.NewPolicy("memtis"))
	const budget = 200_000
	r.Run(m, budget)
	want := tenant.AutoSlice(n)
	if len(sink.aux) == 0 {
		t.Fatal("no tenant_switch events traced")
	}
	for _, aux := range sink.aux {
		if aux > want {
			t.Fatalf("scheduled a %d-access slice; AutoSlice(%d) bounds the quantum at %d", aux, n, want)
		}
	}
	if min := budget / tenant.DefaultSlice; len(sink.aux) <= min {
		t.Errorf("only %d switches over a %d budget — no finer than the fixed %d-access default (%d switches)",
			len(sink.aux), budget, tenant.DefaultSlice, min)
	}
}
