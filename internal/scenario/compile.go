package scenario

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"memtis/internal/dist"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/trace"
	"memtis/internal/vm"
	"memtis/internal/workload"
)

// Options tunes Compile.
type Options struct {
	// Dir resolves relative trace paths (empty = process working
	// directory).
	Dir string
}

// Runner is a compiled scenario: a sim.Workload whose Run executes the
// phases in order. A Runner is immutable after Compile — all run state
// lives in each stream — so one Runner may drive many machines, and
// matrix cells running in parallel may share it (the same contract as
// workload.W; pinned by TestScenarioMatrixDeterminism).
type Runner struct {
	spec   Spec
	fc     tier.FaultConfig
	phases []cphase
	rss    uint64
	// tn is the tenant multiplexer of a multi-tenant spec (nil for the
	// single-tenant phase form); Run delegates to it wholesale.
	tn *tenant.Runner
}

// cphase is one compiled phase: the spec plus its pre-built access
// source. All fields are read-only after Compile.
type cphase struct {
	p      Phase
	w      *workload.W
	replay *trace.Replay
}

// Compile validates a spec and builds its runner, loading any trace
// files it references.
func Compile(spec Spec, opt Options) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{spec: spec, fc: spec.FaultConfig()}
	if len(spec.Tenants) > 0 {
		return compileTenants(r, opt)
	}
	live := map[string]uint64{}
	var running, peak uint64
	for i := range spec.Phases {
		p := spec.Phases[i]
		cp := cphase{p: p}
		for _, name := range p.Free {
			running -= live[name]
			delete(live, name)
		}
		for _, g := range p.Grow {
			live[g.Name] = g.Bytes
			running += g.Bytes
		}
		switch {
		case p.Workload != "":
			var w *workload.W
			var err error
			if p.RSSGB > 0 {
				w, err = workload.NewScaled(p.Workload, p.RSSGB)
			} else {
				w, err = workload.New(p.Workload)
			}
			if err != nil {
				return nil, fmt.Errorf("scenario: phase %d: %w", i, err)
			}
			cp.w = w
			running += w.Spec().RSSBytes()
		case p.Trace != "":
			path := p.Trace
			if opt.Dir != "" && !filepath.IsAbs(path) {
				path = filepath.Join(opt.Dir, path)
			}
			recs, err := trace.LoadFile(path)
			if err != nil {
				return nil, fmt.Errorf("scenario: phase %d: %w", i, err)
			}
			if len(recs) == 0 {
				return nil, fmt.Errorf("scenario: phase %d: trace %s is empty", i, path)
			}
			rep := trace.NewReplay(spec.Name+"/"+p.Trace, recs)
			cp.replay = rep
			running += rep.SpanPages() * tier.BasePageSize
		}
		if running > peak {
			peak = running
		}
		r.phases = append(r.phases, cp)
	}
	if peak > MaxTotalBytes {
		return nil, fmt.Errorf("scenario: peak resident estimate %d exceeds %d (trace spans included)", peak, MaxTotalBytes)
	}
	// Floor the estimate so degenerate scenarios still get a machine
	// with room for a few huge pages per tier.
	if peak < 4<<20 {
		peak = 4 << 20
	}
	r.rss = peak
	return r, nil
}

// compileTenants builds the multi-tenant form: each tenant's phase
// list compiles into its own sub-Runner (scenario -> tenant -> sim,
// one direction), and internal/tenant's scheduler interleaves them.
// The resident estimate is the sum over tenants — every tenant's
// footprint contends for the same tiers.
func compileTenants(r *Runner, opt Options) (*Runner, error) {
	specs := make([]tenant.Spec, len(r.spec.Tenants))
	var rss uint64
	for i := range r.spec.Tenants {
		t := &r.spec.Tenants[i]
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		sub, err := Compile(Spec{Name: r.spec.Name + "/" + name, Phases: t.Phases}, opt)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %d (%s): %w", i, name, err)
		}
		specs[i] = tenant.Spec{
			Name:       name,
			Weight:     t.Weight,
			FloorBytes: t.FloorBytes,
			Workload:   sub,
			SpawnFrac:  t.SpawnFrac,
			ExitFrac:   t.ExitFrac,
			GrowBytes:  t.GrowBytes,
			GrowFrac:   t.GrowFrac,
			ShrinkFrac: t.ShrinkFrac,
		}
		rss += sub.RSSBytes() + t.GrowBytes
	}
	tn, err := tenant.New(tenant.Config{Tenants: specs})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	r.tn = tn
	r.rss = rss
	return r, nil
}

// MustCompile is Compile for tests and examples.
func MustCompile(spec Spec, opt Options) *Runner {
	r, err := Compile(spec, opt)
	if err != nil {
		panic(err)
	}
	return r
}

// Name implements sim.Workload.
func (r *Runner) Name() string { return r.spec.Name }

// Spec returns the compiled spec.
func (r *Runner) Spec() Spec { return r.spec }

// RSSBytes is the peak resident-set estimate harnesses size machines
// with (the running sum of grows, workload RSS and trace spans, net of
// frees, at its maximum over the phase sequence).
func (r *Runner) RSSBytes() uint64 { return r.rss }

// FaultConfig returns the scenario's parsed fault plan (zero when the
// spec declares none).
func (r *Runner) FaultConfig() tier.FaultConfig { return r.fc }

// NumTenants returns the tenant count of a multi-tenant scenario
// (1 for the single-tenant phase form).
func (r *Runner) NumTenants() int {
	if r.tn == nil {
		return 1
	}
	return len(r.spec.Tenants)
}

// Run implements sim.Workload: a multi-tenant scenario runs under its
// tenant scheduler, which owns the budget split (each tenant's
// sub-runner sees the global budget as its nominal target; per-space
// progress runs behind it, so the scheduler's stop at the global budget
// is what ends tenants); the phase form drives its stream.
func (r *Runner) Run(m *sim.Machine, accesses uint64) {
	if r.tn != nil {
		r.tn.Run(m, accesses)
		return
	}
	workload.Run(m, r, accesses)
}

// Stream implements workload.Streamer for the phase form: phases
// execute in order, each driven until the space's cumulative access
// count reaches the phase's share of the budget. Weights split the
// budget proportionally with integer truncation; the rounding remainder
// lands on the last source phase, so the run always issues exactly
// `accesses` accesses. Churn (Free, then Grow with init touches)
// applies at phase entry; init touches are charged against the whole
// run's budget, exactly like a workload's allocation sweep.
//
// Determinism: every random stream is derived from the machine seed,
// the scenario name and the phase index (SplitMix64 over FNV-1a), so a
// fixed (spec, machine config, budget) triple always produces a
// byte-identical access stream and event trace.
func (r *Runner) Stream(m *sim.Machine, accesses uint64) workload.Stream {
	if r.tn != nil {
		panic("scenario: a multi-tenant scenario is not one stream; run it with Run")
	}
	var total float64
	for i := range r.phases {
		total += r.phases[i].p.effWeight()
	}
	budgets := make([]uint64, len(r.phases))
	var used uint64
	lastSrc := -1
	for i := range r.phases {
		if r.phases[i].p.isSource() {
			lastSrc = i
		}
		b := uint64(float64(accesses) * r.phases[i].p.effWeight() / total)
		budgets[i] = b
		used += b
	}
	if lastSrc >= 0 && accesses > used {
		budgets[lastSrc] += accesses - used
	}
	regions := map[string]vm.Region{}
	var parts []workload.Stream
	var target uint64
	for i := range r.phases {
		cp := &r.phases[i]
		target += budgets[i]
		target := target
		parts = append(parts, workload.Lazy(func(uint64) workload.Stream {
			for _, name := range cp.p.Free {
				if reg, ok := regions[name]; ok {
					m.FreeRegion(reg)
					delete(regions, name)
				}
			}
			return nil
		}))
		for _, g := range cp.p.Grow {
			// First-touch writes of the fresh region, bounded by the run's
			// total access budget.
			parts = append(parts, workload.Lazy(func(done uint64) workload.Stream {
				reg := m.Reserve(g.Bytes)
				regions[g.Name] = reg
				if g.SkipInit {
					return nil
				}
				return workload.Sweep(workload.Writes(reg.BaseVPN), min(done+reg.Pages, accesses), workload.Unbounded, workload.BatchSize)
			}))
		}
		switch {
		case cp.w != nil:
			parts = append(parts, workload.Lazy(func(uint64) workload.Stream { return cp.w.Stream(m, target) }))
		case cp.replay != nil:
			parts = append(parts, workload.Lazy(func(uint64) workload.Stream { return cp.replay.Stream(m, target) }))
		case len(cp.p.Mix) > 0:
			parts = append(parts, workload.Lazy(func(uint64) workload.Stream {
				return r.mix(m.Cfg.Seed, i, cp.p.Mix, regions, target)
			}))
		}
	}
	return workload.Seq(parts...)
}

// mix is one mix phase's stream: draws until the space reaches target
// cumulative accesses.
func (r *Runner) mix(seed int64, phase int, mix []MixEntry, regions map[string]vm.Region, target uint64) workload.Stream {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ splitmix64(fnv1a(r.spec.Name)+uint64(phase)+1)))))
	type arm struct {
		base  uint64
		src   dist.Source
		write int
	}
	arms := make([]arm, 0, len(mix))
	weights := make([]int, 0, len(mix))
	total := 0
	for _, e := range mix {
		reg := regions[e.Region]
		var src dist.Source
		switch e.Dist {
		case "zipf":
			src = dist.NewZipf(rng, e.S, reg.Pages)
		case "uniform":
			src = dist.NewUniform(rng, reg.Pages)
		case "seq":
			src = dist.NewSequential(reg.Pages)
		}
		if e.Scramble {
			src = dist.NewScrambled(src)
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		arms = append(arms, arm{base: reg.BaseVPN, src: src, write: e.WritePercent})
		total += w
		weights = append(weights, total)
	}
	return workload.Sweep(func() (uint64, bool) {
		pick := rng.Intn(total)
		idx := 0
		for weights[idx] <= pick {
			idx++
		}
		a := &arms[idx]
		return a.base + a.src.Next(), rng.Intn(100) < a.write
	}, target, workload.Unbounded, workload.BatchSize)
}

var _ workload.Streamer = (*Runner)(nil)
