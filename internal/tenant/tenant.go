// Package tenant multiplexes N contending processes onto one simulated
// machine: each tenant owns one of the machine's address spaces (the
// first tenant the root space) and an independent workload, all
// sharing the machine's tiers and its single policy daemon. A
// deterministic weighted scheduler interleaves the tenants'
// access streams in fixed-size slices; a lifecycle plan spawns and
// exits tenants and grows and shrinks their footprints mid-run; and a
// QoS arbiter below the policy layer enforces per-tenant fast-tier
// floors and weighted promotion shares (DESIGN.md §10).
//
// The scheduler is an inline run loop on the caller's goroutine. Every
// tenant workload is a workload.Streamer: the scheduler holds each
// tenant's suspended stream and drives it through workload.Drive for
// exactly one slice at a time, with no goroutine, channel operation or
// allocation on the per-slice path.
//
// Determinism is by construction: the interleaving is a pure function
// of the machine seed and the config, so the same seed produces
// byte-identical event traces sequential or under a parallel matrix
// (the tenant/ and drive/ golden cells in internal/bench pin this).
package tenant

import (
	"fmt"
	"sort"

	"memtis/internal/dist"
	"memtis/internal/obs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
	"memtis/internal/workload"
)

// Spec describes one tenant: identity, workload, QoS knobs and its
// lifecycle-churn plan. Churn points are fractions of the machine's
// global access budget, so a plan scales with run length.
type Spec struct {
	// Name labels the tenant's counters (`tenant/<name>/...`) and
	// result row. Empty defaults to "t<index>".
	Name string
	// Weight is the tenant's share weight: it biases the scheduler's
	// slice draw and bounds the tenant's fraction of promotions while
	// the fast tier is contended. Zero means 1.
	Weight uint64
	// FloorBytes is the guaranteed fast-tier floor. Demotions (and
	// collapses into the capacity tier) that would push the tenant's
	// fast footprint below min(floor, resident) are vetoed. Floors
	// are clamped proportionally if their sum exceeds what the fast
	// tier can honour.
	FloorBytes uint64
	// Workload drives the tenant's address space, including
	// single-tenant scenario runners; instances may be shared across
	// tenants (all run state lives in each stream).
	Workload workload.Streamer

	// SpawnFrac > 0 delays the tenant's first slice until that
	// fraction of the budget has elapsed; 0 spawns at start.
	SpawnFrac float64
	// ExitFrac > 0 kills the tenant at that point and frees its whole
	// address space; 0 means the tenant runs to the end. At least one
	// tenant per config must be immortal.
	ExitFrac float64
	// GrowBytes > 0 reserves and write-touches an extra region at
	// GrowFrac (the touches count against the global budget);
	// ShrinkFrac > 0 frees that region again.
	GrowBytes  uint64
	GrowFrac   float64
	ShrinkFrac float64
}

// ChurnKind classifies one lifecycle event.
type ChurnKind uint8

// Churn event kinds, in intra-threshold application order.
const (
	ChurnSpawn ChurnKind = iota
	ChurnGrow
	ChurnShrink
	ChurnExit
)

// String names the kind.
func (k ChurnKind) String() string {
	switch k {
	case ChurnSpawn:
		return "spawn"
	case ChurnGrow:
		return "grow"
	case ChurnShrink:
		return "shrink"
	case ChurnExit:
		return "exit"
	}
	return "unknown"
}

// Bounds and defaults.
const (
	// MaxTenants bounds a config (the conformance sweep's largest
	// point is 1024; the bound leaves headroom without letting a
	// fuzzer allocate unbounded spaces).
	MaxTenants = 4096
	// DefaultSlice is the scheduler quantum in accesses — roughly
	// half a millisecond of simulated time at typical access costs,
	// comparable to an OS scheduler's minimum granularity. Smaller
	// quanta interleave tenants more finely but switch page tables,
	// cold in the host caches, more often. A switch does not flush the
	// simulated TLB: translations carry the space tag
	// (sim.SpaceTagShift), so tenants only compete for its capacity.
	DefaultSlice = 8192
	// MinSlice is the floor AutoSlice scales down to for very large
	// mixes: below ~256 accesses the per-switch cost dominates the
	// slice itself, and the tenants run since the last slice have
	// evicted most of the incoming tenant's translations.
	MinSlice  = 256
	maxWeight = 1_000_000
	// shareSlackUnits is the arbiter's burst allowance above a
	// tenant's exact proportional share of contended promotions: a
	// few huge pages' worth, so coarse-grained (2MB) promotions don't
	// deadlock the share accounting at low totals.
	shareSlackUnits = 2 * tier.SubPages
)

// Config is a multi-tenant run plan.
type Config struct {
	Tenants []Spec
	// Slice is the scheduler quantum in accesses (default
	// DefaultSlice). Large tenant counts want a smaller slice so
	// every tenant runs within a bounded budget.
	Slice uint64
	// OnChurn, when set, runs after every applied churn event —
	// the churn property test audits the machine here.
	OnChurn func(kind ChurnKind, tenant int)
}

// Validate checks the config bounds.
func (c *Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("tenant: no tenants")
	}
	if len(c.Tenants) > MaxTenants {
		return fmt.Errorf("tenant: %d tenants exceeds the %d bound", len(c.Tenants), MaxTenants)
	}
	immortal := false
	seen := make(map[string]bool, len(c.Tenants))
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Workload == nil {
			return fmt.Errorf("tenant %d: nil workload", i)
		}
		if t.Weight > maxWeight {
			return fmt.Errorf("tenant %d: weight %d exceeds the %d bound", i, t.Weight, maxWeight)
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"SpawnFrac", t.SpawnFrac}, {"ExitFrac", t.ExitFrac}, {"GrowFrac", t.GrowFrac}, {"ShrinkFrac", t.ShrinkFrac}} {
			if f.v < 0 || f.v > 1 {
				return fmt.Errorf("tenant %d: %s %v outside [0,1]", i, f.name, f.v)
			}
		}
		if t.ExitFrac > 0 && t.SpawnFrac >= t.ExitFrac {
			return fmt.Errorf("tenant %d: spawns at %v, at or after its exit %v", i, t.SpawnFrac, t.ExitFrac)
		}
		if t.GrowBytes > 0 && t.ShrinkFrac > 0 && t.ShrinkFrac <= t.GrowFrac {
			return fmt.Errorf("tenant %d: shrinks at %v, at or before its grow %v", i, t.ShrinkFrac, t.GrowFrac)
		}
		if t.ExitFrac == 0 {
			immortal = true
		}
		name := tenantName(t, i)
		if seen[name] {
			return fmt.Errorf("tenant %d: duplicate name %q", i, name)
		}
		seen[name] = true
	}
	if !immortal {
		return fmt.Errorf("tenant: every tenant exits; at least one must run to the end")
	}
	return nil
}

func tenantName(t *Spec, i int) string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("t%d", i)
}

// Runner drives a Config as a sim.Workload. It is immutable after New
// — all per-run state lives in the run struct — so one Runner is safe
// to share across parallel matrix cells, like scenario runners.
type Runner struct {
	cfg Config
}

// New validates the config and builds a Runner.
func New(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Slice == 0 {
		cfg.Slice = AutoSlice(len(cfg.Tenants))
	}
	return &Runner{cfg: cfg}, nil
}

// AutoSlice returns the default scheduler quantum for n tenants:
// DefaultSlice up to 64 tenants (the historical fixed default), then
// scaled down so one full fairness rotation over every tenant fits the
// same window 64 tenants get (n*slice <= 64*DefaultSlice), floored at
// MinSlice. At 1024 tenants this tightens the quantum to 512 accesses,
// so every tenant is still scheduled within a bounded fraction of a
// typical budget instead of the rotation stretching 16x.
func AutoSlice(n int) uint64 {
	const window = 64 * DefaultSlice
	s := uint64(DefaultSlice)
	if n > 0 && uint64(n)*s > window {
		s = window / uint64(n)
		if s < MinSlice {
			s = MinSlice
		}
	}
	return s
}

// Name implements sim.Workload.
func (r *Runner) Name() string { return "tenants" }

// Run implements sim.Workload: it interleaves the tenants' workloads
// on m until exactly `accesses` accesses have been issued machine-wide
// (every tenant's workload is given the global budget as its nominal
// target; the scheduler preempts and finally stops them at slice and
// budget boundaries, so the total always lands exactly). The machine
// must be fresh: one space and not previously run.
//
// Tenant i runs in space i, the id its trace events carry; the first
// tenant keeps the root space, so a lone tenant adds no space. The QoS
// arbiter is the migration veto of the machine's one vm.Memory, which
// every space shares, whenever it is added.
func (r *Runner) Run(m *sim.Machine, accesses uint64) {
	n := len(r.cfg.Tenants)
	names := make([]string, n)
	for i := range r.cfg.Tenants {
		names[i] = tenantName(&r.cfg.Tenants[i], i)
	}
	a := newArbiter(m, r.cfg.Tenants, names)
	m.AS.MigrateVeto = a.veto
	for i := 1; i < n; i++ {
		if id := m.AddSpace(names[i]); id != i {
			panic("tenant: machine not fresh (spaces already added)")
		}
	}
	m.SetSpaceLabel(0, names[0])
	newRun(&r.cfg, m, a, accesses).loop()
	a.finalize()
}

// proc is one tenant's scheduler state: its suspended stream (nil until
// first scheduled) and its liveness.
type proc struct {
	spec   *Spec
	stream workload.Stream
	live   bool
}

type churnEvent struct {
	at     uint64
	tenant int
	kind   ChurnKind
}

// run is the scheduler: the weighted pick, the churn plan and the slice
// accounting, acting inline on the machine and its QoS arbiter.
type run struct {
	m      *sim.Machine
	arb    *arbiter
	cfg    *Config
	target uint64
	slice  uint64
	procs  []proc
	// pk is the weighted pick state (see wpick): tenants are credited
	// when runnable, cleared when finished or exited.
	pk     *wpick
	events []churnEvent
	nextEv int
	grown  []vm.Region
	rng    uint64
	// buf is the issue batch (no allocation on the slice path).
	buf [workload.BatchSize]sim.Op
}

func newRun(cfg *Config, m *sim.Machine, arb *arbiter, accesses uint64) *run {
	n := len(cfg.Tenants)
	st := &run{
		m:      m,
		arb:    arb,
		cfg:    cfg,
		target: accesses,
		slice:  cfg.Slice,
		procs:  make([]proc, n),
		pk:     newWpick(n),
		grown:  make([]vm.Region, n),
		rng:    uint64(m.Cfg.Seed) ^ 0x74_65_6e_61_6e_74, // "tenant"
	}
	for i := range cfg.Tenants {
		t := &cfg.Tenants[i]
		st.procs[i].spec = t
		if t.SpawnFrac <= 0 {
			st.spawn(i)
		} else {
			st.events = append(st.events, churnEvent{st.frac(t.SpawnFrac), i, ChurnSpawn})
		}
		if t.GrowBytes > 0 {
			st.events = append(st.events, churnEvent{st.frac(t.GrowFrac), i, ChurnGrow})
			if t.ShrinkFrac > 0 {
				st.events = append(st.events, churnEvent{st.frac(t.ShrinkFrac), i, ChurnShrink})
			}
		}
		if t.ExitFrac > 0 {
			st.events = append(st.events, churnEvent{st.frac(t.ExitFrac), i, ChurnExit})
		}
	}
	// Intra-threshold application order: (threshold, kind, tenant).
	sort.SliceStable(st.events, func(a, b int) bool {
		ea, eb := st.events[a], st.events[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.kind != eb.kind {
			return ea.kind < eb.kind
		}
		return ea.tenant < eb.tenant
	})
	return st
}

// loop schedules slices until the budget is spent or no tenant is
// runnable.
func (st *run) loop() {
	for {
		st.fireChurn()
		if st.m.TotalAccesses() >= st.target {
			return
		}
		t := st.pick()
		if t < 0 {
			return
		}
		st.schedule(t)
	}
}

func (st *run) frac(f float64) uint64 { return uint64(f * float64(st.target)) }

// rand is a SplitMix64 step — the scheduler's only randomness, fully
// determined by the machine seed.
func (st *run) rand() uint64 {
	x := st.rng
	st.rng += 0x9e3779b97f4a7c15
	return dist.SplitMix64(x)
}

// fireChurn applies every lifecycle event whose threshold has passed.
func (st *run) fireChurn() {
	for st.nextEv < len(st.events) && st.events[st.nextEv].at <= st.m.TotalAccesses() {
		ev := st.events[st.nextEv]
		st.nextEv++
		st.apply(ev)
	}
}

func (st *run) apply(ev churnEvent) {
	switch ev.kind {
	case ChurnSpawn:
		st.spawn(ev.tenant)
	case ChurnExit:
		st.exit(ev.tenant)
	case ChurnGrow:
		st.grow(ev.tenant)
	case ChurnShrink:
		st.shrink(ev.tenant)
	}
	st.arb.checkFloors()
	if st.cfg.OnChurn != nil {
		st.cfg.OnChurn(ev.kind, ev.tenant)
	}
}

func (st *run) spawn(t int) {
	st.procs[t].live = true
	st.pk.set(t, max(st.procs[t].spec.Weight, 1))
	st.arb.addLive(t)
	st.m.Trace.Emit(obs.EvTenantSpawn, uint64(t), false, 0, 0)
}

// exit stops the tenant's stream and frees its entire address space.
func (st *run) exit(t int) {
	p := &st.procs[t]
	if !p.live {
		return
	}
	p.live = false
	st.pk.clear(t)
	st.arb.removeLive(t)
	as := st.m.Space(t)
	released := as.ResidentUnits() * tier.BasePageSize
	st.m.UseSpace(t)
	st.m.FreeRegion(vm.Region{BaseVPN: 0, Pages: as.ReservedPages()})
	st.m.Trace.Emit(obs.EvTenantExit, uint64(t), false, released, 0)
}

// grow reserves the tenant's churn region and write-touches it
// (scheduler-issued accesses: they count against the global budget and
// the tenant's own).
func (st *run) grow(t int) {
	p := &st.procs[t]
	if !p.live || p.spec.GrowBytes == 0 {
		return
	}
	st.m.UseSpace(t)
	reg := st.m.Reserve(p.spec.GrowBytes)
	st.grown[t] = reg
	workload.Drive(st.m, workload.Sweep(workload.Writes(reg.BaseVPN), workload.Unbounded, reg.Pages, workload.BatchSize), st.target, st.buf[:])
}

func (st *run) shrink(t int) {
	if !st.procs[t].live || st.grown[t].Pages == 0 {
		return
	}
	st.m.UseSpace(t)
	st.m.FreeRegion(st.grown[t])
	st.grown[t] = vm.Region{}
}

// pick draws the next tenant to run, weighted by share weight among
// live, unfinished tenants; -1 when none are runnable. The draw is a
// Fenwick prefix-sum search — the selected tenant is exactly the one a
// linear cumulative-weight scan would return for the same draw.
func (st *run) pick() int {
	if st.pk.sum == 0 {
		return -1
	}
	return st.pk.pick(st.rand() % st.pk.sum)
}

// schedule runs tenant t for one slice, bounded by the next churn
// threshold and the global budget: its stream is driven until the
// machine reaches the slice end or the stream ends (its own budget,
// measured on its own space, is spent).
func (st *run) schedule(t int) {
	now := st.m.TotalAccesses()
	end := now + st.slice
	if st.nextEv < len(st.events) && st.events[st.nextEv].at < end {
		end = st.events[st.nextEv].at
	}
	if st.target < end {
		end = st.target
	}
	st.m.UseSpace(t)
	st.m.Trace.Emit(obs.EvTenantSwitch, uint64(t), false, 0, end-now)
	p := &st.procs[t]
	if p.stream == nil {
		p.stream = p.spec.Workload.Stream(st.m, st.target)
	}
	if !workload.Drive(st.m, p.stream, end, st.buf[:]) {
		st.pk.clear(t)
	}
	st.arb.checkFloor(t)
}
