package main

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/tlb"
	"memtis/internal/vm"
)

// onAccessSample times one OnAccess call in this many: OnAccess runs
// tens of nanoseconds, so timing every call would double its cost.
const onAccessSample = 64

// replayCap bounds the accesses a replay captures (64 MB of ops).
const replayCap = 4_000_000

// hookStats counts a policy's calls through the sim.Policy hooks and
// the host time they took.
type hookStats struct {
	onAccess, sampled  uint64
	sampledNS          time.Duration
	ticks, placeNew    uint64
	tickNS, placeNewNS time.Duration
	accesses, switches uint64
}

func (h *hookStats) add(o hookStats) {
	h.onAccess += o.onAccess
	h.sampled += o.sampled
	h.sampledNS += o.sampledNS
	h.ticks += o.ticks
	h.placeNew += o.placeNew
	h.tickNS += o.tickNS
	h.placeNewNS += o.placeNewNS
	h.accesses += o.accesses
	h.switches += o.switches
}

// onAccessNS is the host time of one OnAccess call, less the timer.
func (h *hookStats) onAccessNS(timer float64) float64 {
	return perCall(h.sampledNS, h.sampled, timer)
}

func (h *hookStats) onAccessShare() float64 { return ratio(float64(h.onAccess), float64(h.accesses)) }

func (h *hookStats) onAccessPerAccess(timer float64) float64 {
	return h.onAccessNS(timer) * h.onAccessShare()
}

func (h *hookStats) tickPerAccess(timer float64) float64 {
	return perCall(h.tickNS, h.ticks, timer) * ratio(float64(h.ticks), float64(h.accesses))
}

func (h *hookStats) placeNewNSPerCall(timer float64) float64 {
	return perCall(h.placeNewNS, h.placeNew, timer)
}

func perCall(d time.Duration, n uint64, timer float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d)/float64(n) - timer
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPolicy times a policy's hooks from outside. It forwards the
// optional interfaces the machine and the conformance probe look for,
// so a wrapped run simulates exactly what the bare policy does:
// SampleGate keeps MEMTIS's FastSampled bypass, HotSet its hot-set
// reports.
type tracedPolicy struct {
	sim.Policy
	st *hookStats
}

func (p *tracedPolicy) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	p.st.onAccess++
	if p.st.onAccess%onAccessSample != 0 {
		return p.Policy.OnAccess(tr, vpn, write)
	}
	t := time.Now()
	stall := p.Policy.OnAccess(tr, vpn, write)
	p.st.sampledNS += time.Since(t)
	p.st.sampled++
	return stall
}

func (p *tracedPolicy) Tick(now uint64) {
	t := time.Now()
	p.Policy.Tick(now)
	p.st.tickNS += time.Since(t)
	p.st.ticks++
}

func (p *tracedPolicy) PlaceNew(huge bool, vpn uint64) tier.ID {
	t := time.Now()
	id := p.Policy.PlaceNew(huge, vpn)
	p.st.placeNewNS += time.Since(t)
	p.st.placeNew++
	return id
}

// SampleGate implements sim.FastSampled for policies that do.
func (p *tracedPolicy) SampleGate() *pebs.Sampler {
	if fs, ok := p.Policy.(sim.FastSampled); ok {
		return fs.SampleGate()
	}
	return nil
}

// HotSet implements sim.HotSetReporter for policies that do.
func (p *tracedPolicy) HotSet() (hot, warm, cold uint64) {
	if hr, ok := p.Policy.(sim.HotSetReporter); ok {
		return hr.HotSet()
	}
	return 0, 0, 0
}

// switchCounter is an obs.Sink that counts tenant switches.
type switchCounter struct{ n *uint64 }

func (s switchCounter) Emit(e obs.Event) {
	if e.Kind == obs.EvTenantSwitch {
		*s.n++
	}
}

// timerNS is the host time an empty timed region reads: time.Now plus
// time.Since. Hook timings subtract it.
func timerNS() float64 {
	const n = 100_000
	runs := make([]float64, 5)
	for r := range runs {
		var d time.Duration
		for i := 0; i < n; i++ {
			t := time.Now()
			d += time.Since(t)
		}
		runs[r] = float64(d) / n
	}
	return median(runs)
}

// runResult is one timed run of a cell.
type runResult struct {
	res    sim.Result
	wall   time.Duration
	policy string
	hooks  hookStats
	audit  error
}

// runCell simulates c once, untraced or with its policy wrapped and a
// tenant-switch counter attached.
func runCell(c cell, traced bool) runResult {
	var out runResult
	cfg := c.config
	wrap := noWrap
	if traced {
		cfg.Trace = obs.NewTracer(switchCounter{&out.hooks.switches})
		wrap = func(p sim.Policy) sim.Policy { return &tracedPolicy{Policy: p, st: &out.hooks} }
	}
	t := time.Now()
	pol := c.policy(wrap)
	m := sim.NewMachine(cfg, pol)
	c.load.Run(m, c.budget)
	out.res = m.Finish(c.load.Name())
	out.wall = time.Since(t)
	out.policy = pol.Name()
	out.hooks.accesses = out.res.Accesses
	out.audit = m.Audit()
	return out
}

// replayCost is the host time of each layer over one captured stream.
type replayCost struct {
	n                                       uint64
	gen, batch, touch, touchFast, tlb, feed time.Duration
	fidelity                                error
}

func (r *replayCost) add(o replayCost) {
	r.n += o.n
	r.gen += o.gen
	r.batch += o.batch
	r.touch += o.touch
	r.touchFast += o.touchFast
	r.tlb += o.tlb
	r.feed += o.feed
}

// replay captures the first accesses of c's stream on a policy-free
// machine and replays them through one layer at a time, each on a
// fresh space prepared by the stream's Run(m, 0). The generator's cost
// is the direct run less its set-up and less the batch replay of the
// same stream. fidelity reports a batch replay whose result differs
// from the direct run's.
func replay(c cell) replayCost {
	n := c.budget
	if n > replayCap {
		n = replayCap
	}
	cfg := c.config
	cfg.Trace = nil
	fresh := func() (*sim.Machine, time.Duration) {
		m := sim.NewMachine(cfg, nil)
		t := time.Now()
		c.stream.Run(m, 0)
		return m, time.Since(t)
	}

	m := sim.NewMachine(cfg, nil)
	ops := make([]sim.Op, 0, n)
	m.AccessObserver = func(vpn uint64, write bool, _ uint64) {
		ops = append(ops, sim.Op{VPN: vpn, Write: write})
	}
	c.stream.Run(m, n)

	var out replayCost
	out.n = uint64(len(ops))
	m = sim.NewMachine(cfg, nil)
	t := time.Now()
	c.stream.Run(m, n)
	direct := time.Since(t)
	want := m.Finish(c.stream.Name())

	m, build := fresh()
	t = time.Now()
	for i := 0; i < len(ops); i += 256 {
		m.AccessBatch(ops[i:min(i+256, len(ops))])
	}
	out.batch = time.Since(t)
	out.gen = direct - build - out.batch
	if got := m.Finish(c.stream.Name()); !reflect.DeepEqual(got, want) {
		out.fidelity = fmt.Errorf("replay of %s differs from its direct run", c.label)
	}

	var sink uint64
	m, _ = fresh()
	t = time.Now()
	for _, op := range ops {
		sink += uint64(m.AS.Touch(op.VPN, op.Write).Tier)
	}
	out.touch = time.Since(t)

	huge := make([]bool, len(ops))
	m, _ = fresh()
	t = time.Now()
	for i, op := range ops {
		if id, h, ok := m.AS.TouchFast(op.VPN, op.Write); ok {
			sink += uint64(id)
			huge[i] = h
		} else {
			huge[i] = m.AS.TouchLite(op.VPN, op.Write).Huge
		}
	}
	out.touchFast = time.Since(t)

	tl := tlb.New(cfg.TLB)
	t = time.Now()
	for i, op := range ops {
		sink += tl.Access(op.VPN, huge[i])
	}
	out.tlb = time.Since(t)

	smp := pebs.NewSampler(pebs.DefaultConfig())
	t = time.Now()
	for _, op := range ops {
		if _, ok := smp.Feed(op.VPN, op.Write); ok {
			sink++
		}
	}
	out.feed = time.Since(t)
	keep = sink
	return out
}

// keep holds the replay loops' checksums so the compiler cannot drop
// the calls they time.
var keep uint64

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
