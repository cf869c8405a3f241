// Package workload models the eight memory-intensive applications of
// the paper's evaluation (Table 2) as synthetic access-stream
// generators over the simulated machine. Each generator encodes the
// characteristics the paper's analysis attributes to its application —
// phase structure, hot-set size and placement, huge-page subpage skew,
// memory bloat, allocation churn — with the resident set scaled down
// ~128x (1 paper-GB = 8 simulated MB) while preserving every ratio the
// tiering decisions depend on (see DESIGN.md §4).
package workload

import (
	"fmt"

	"memtis/internal/dist"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/vm"
)

// BytesPerPaperGB is the down-scaling factor: one GB of paper RSS
// becomes this many simulated bytes.
const BytesPerPaperGB = 8 << 20

// Spec describes one benchmark (the scaled Table 2 row).
type Spec struct {
	Name        string
	PaperRSSGB  float64 // Table 2 RSS
	RHP         float64 // Table 2 ratio of huge pages
	Description string
	// PaperOverAllocMB is HeMem's over-allocation from Table 3.
	PaperOverAllocMB float64
}

// RSSBytes returns the scaled resident-set size.
func (s Spec) RSSBytes() uint64 {
	return uint64(s.PaperRSSGB * BytesPerPaperGB)
}

// SmallBytes returns the scaled volume of small (non-THP) allocations,
// derived from the huge-page ratio: small = (1-RHP) * RSS. This is also
// the source of HeMem's over-allocation.
func (s Spec) SmallBytes() uint64 {
	return uint64((1 - s.RHP) * float64(s.RSSBytes()))
}

// Specs returns the Table 2 benchmark set in paper order.
func Specs() []Spec {
	return []Spec{
		{"graph500", 66.3, 0.999, "Generation and search of large graphs", 60},
		{"pagerank", 12.3, 0.999, "PageRank over the Twitter graph (GAP)", 500},
		{"xsbench", 63.4, 1.000, "Monte Carlo neutron transport kernel", 420},
		{"liblinear", 67.9, 0.999, "Linear classification (KDD12)", 90},
		{"silo", 58.1, 0.974, "In-memory database engine (YCSB-C)", 1400},
		{"btree", 38.3, 0.752, "In-memory index lookup", 9800},
		{"603.bwaves", 11.1, 0.995, "Explosion modelling (SPEC CPU 2017)", 1900},
		{"654.roms", 10.3, 0.966, "Regional ocean modelling (SPEC CPU 2017)", 900},
	}
}

// SpecByName finds a Table 2 entry.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// stepper emits the next access of the steady phase.
type stepper func() (vpn uint64, write bool)

// W is one runnable benchmark model.
type W struct {
	spec Spec
	// build performs the model's reservations against c and returns its
	// steady phase; the initialisation phase it queues on c runs first.
	build func(c *ctx) Stream
}

// Name implements sim.Workload.
func (w *W) Name() string { return w.spec.Name }

// Spec returns the benchmark's Table 2 description.
func (w *W) Spec() Spec { return w.spec }

// Run implements sim.Workload by driving the model's stream.
func (w *W) Run(m *sim.Machine, accesses uint64) { Run(m, w, accesses) }

// Stream implements Streamer: the initialisation phase (reservations,
// then first-touch writes that count toward the access budget), then
// the steady phase until the budget is exhausted. The reservations are
// applied before Stream returns; an exhausted budget skips every
// access but no reservation, so a zero budget leaves the model's
// address space laid out and untouched. The stream draws from
// m.Cfg.StreamSeed (Seed when zero).
func (w *W) Stream(m *sim.Machine, budget uint64) Stream { return w.stream(m, budget, nil) }

// stream builds the model's stream; a non-nil rec logs its
// reservations and frees.
func (w *W) stream(m *sim.Machine, budget uint64, rec *Capture) Stream {
	c := &ctx{
		m:      m,
		rng:    dist.NewRand(streamSeed(m.Cfg) ^ int64(len(w.spec.Name)<<8)),
		budget: budget,
		spec:   w.spec,
		rec:    rec,
	}
	steady := w.build(c)
	return Seq(append(c.init, steady)...)
}

// streamSeed is the seed a model's stream draws from on a machine
// built from cfg.
func streamSeed(cfg sim.Config) int64 {
	if cfg.StreamSeed != 0 {
		return cfg.StreamSeed
	}
	return cfg.Seed
}

// New builds the named benchmark model.
func New(name string) (*W, error) {
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	var build func(c *ctx) Stream
	switch name {
	case "graph500":
		build = buildGraph500
	case "pagerank":
		build = buildPageRank
	case "xsbench":
		build = buildXSBench
	case "liblinear":
		build = buildLiblinear
	case "silo":
		build = buildSilo
	case "btree":
		build = buildBtree
	case "603.bwaves":
		build = buildBwaves
	case "654.roms":
		build = buildRoms
	}
	return &W{spec: spec, build: build}, nil
}

// NewScaled builds the named benchmark with an overridden paper-scale
// RSS (used by the Figure 6 scalability sweep, which grows Graph500
// from 128GB to 690GB).
func NewScaled(name string, rssGB float64) (*W, error) {
	w, err := New(name)
	if err != nil {
		return nil, err
	}
	w.spec.PaperRSSGB = rssGB
	return w, nil
}

// MustNew is New for tests and examples.
func MustNew(name string) *W {
	w, err := New(name)
	if err != nil {
		panic(err)
	}
	return w
}

// All returns every benchmark model.
func All() []*W {
	specs := Specs()
	ws := make([]*W, 0, len(specs))
	for _, s := range specs {
		ws = append(ws, MustNew(s.Name))
	}
	return ws
}

// ctx carries build state shared by the generators: the machine the
// stream reserves and frees on, its budget, and the initialisation
// phase queued so far. Every reservation and free of a model goes
// through it, so a capture (rec) logs each at its stream position.
type ctx struct {
	m      *sim.Machine
	rng    *dist.Rand
	budget uint64
	spec   Spec
	init   []Stream
	rec    *Capture
}

// region wraps a reservation with conveniences for page-granular access.
type region struct {
	r     vm.Region
	pages uint64
}

func (c *ctx) reserve(bytes uint64) region {
	r := c.reserveRegion(bytes)
	return region{r: r, pages: r.Pages}
}

func (c *ctx) reserveRegion(bytes uint64) vm.Region {
	r := c.m.Reserve(bytes)
	c.rec.log(event{bytes: bytes, r: r})
	return r
}

func (c *ctx) free(r vm.Region) {
	c.m.FreeRegion(r)
	c.rec.log(event{free: true, r: r})
}

// reserveSmall reserves total bytes as many sub-2MB regions so they are
// backed by base pages (models the application's small allocations and
// yields the workload's RHP and HeMem's Table 3 over-allocation).
func (c *ctx) reserveSmall(total uint64) []region {
	var out []region
	const chunk = 512 << 10 // 512KB
	for total > 0 {
		b := uint64(chunk)
		if b > total {
			b = total
		}
		out = append(out, c.reserve(b))
		if b < chunk {
			break
		}
		total -= b
	}
	return out
}

// vpnAt returns the region's i-th page VPN, wrapping i around the
// region (cursor sweeps run past its end).
func (r region) vpnAt(i uint64) uint64 { return r.r.BaseVPN + i%r.pages }

// at returns the region's i-th page VPN for an i already in range, such
// as a Zipf draw over the region's pages: no divide.
func (r region) at(i uint64) uint64 { return r.r.BaseVPN + i }

// touchAll queues a first-touch write of every page in order, counting
// toward the access budget, checked once per batch.
func (c *ctx) touchAll(r region) {
	c.init = append(c.init, Sweep(Writes(r.r.BaseVPN), c.budget, r.pages, BatchSize))
}

// touchSmall initialises a set of small regions.
func (c *ctx) touchSmall(rs []region) {
	for _, r := range rs {
		c.touchAll(r)
	}
}

// steady is the steady phase of a pure stepper: driven until the budget
// is exhausted, checked once per batch. The stepper's state (c.rng
// among it) is the phase's own, as Steady requires: nothing draws from
// it once the steady phase starts but the stepper.
func (c *ctx) steady(step stepper) Stream { return Steady(step, c.budget) }

// zipf draws skewed indexes in [0, n): rand.Zipf's value stream
// (s > 1), from dist's guide-table copy of it.
type zipf struct {
	z *dist.StdZipf
}

// zipfBuilt, when set, observes every sampler's (s, n) as a model
// builds it.
var zipfBuilt func(s float64, n uint64)

func newZipf(rng *dist.Rand, s float64, n uint64) zipf {
	if n < 1 {
		n = 1
	}
	if zipfBuilt != nil {
		zipfBuilt(s, n)
	}
	return zipf{z: dist.NewStdZipf(rng, s, 1, n-1)}
}

func (z zipf) next() uint64 { return z.z.Uint64() }

// perm is a page-index permutation used to scatter hot indexes across
// the address range (hash-distributed heaps).
type perm struct {
	p []uint32
}

func newPerm(rng *dist.Rand, n uint64) perm {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	rng.Shuffle(p)
	return perm{p: p}
}

// at returns the i-th entry; i must be in range.
func (pm perm) at(i uint64) uint64 { return uint64(pm.p[i]) }

// pick returns true with probability num/den.
func (c *ctx) pick(num, den uint32) bool { return c.rng.Uint32()%den < num }

// smallStepper returns a stepper over the small regions with uniform
// access, used as a low-intensity side channel in several benchmarks.
func smallStepper(c *ctx, rs []region) stepper {
	if len(rs) == 0 {
		return func() (uint64, bool) { return 0, false }
	}
	var total uint64
	for _, r := range rs {
		total += r.pages
	}
	// reserveSmall's chunks all hold per pages but the last, which holds
	// no more, so the index's chunk is one divide away.
	per := rs[0].pages
	return func() (uint64, bool) {
		i := c.rng.Uint64() % total
		r := rs[i/per]
		return r.r.BaseVPN + i%per, c.pick(1, 4)
	}
}

var _ Streamer = (*W)(nil)

// HugeAllocRatio computes the fraction of RSS mapped by huge pages on
// the machine — the measured RHP for Table 2.
func HugeAllocRatio(m *sim.Machine) float64 {
	var huge, total uint64
	m.AS.ForEachPage(func(p *vm.Page) {
		total += p.Units()
		if p.IsHuge() {
			huge += p.Units()
		}
	})
	if total == 0 {
		return 0
	}
	return float64(huge) / float64(total)
}

// UtilizationSample is one Figure 3 dot: a huge page's access count
// against the number of its subpages seen by sampling.
type UtilizationSample struct {
	AccessCount uint64
	Utilization int // accessed subpages, 0..512
}

// CollectUtilization harvests Figure 3 data from a machine after a run
// with PEBS-backed subpage counters (the MEMTIS policy).
func CollectUtilization(m *sim.Machine) []UtilizationSample {
	var out []UtilizationSample
	m.AS.ForEachPage(func(p *vm.Page) {
		if !p.IsHuge() || p.SubCount == nil {
			return
		}
		u := 0
		for j := 0; j < tier.SubPages; j++ {
			if p.SubCount[j] > 0 {
				u++
			}
		}
		if p.Count > 0 {
			out = append(out, UtilizationSample{AccessCount: p.Count, Utilization: u})
		}
	})
	return out
}
