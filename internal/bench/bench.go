// Package bench is the experiment harness: it wires workloads, policies
// and machine configurations into the runs that regenerate every table
// and figure of the paper's evaluation (§6). cmd/paperfigs and the
// repository's bench_test.go are thin wrappers over this package.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	memtis "memtis/internal/core"
	"memtis/internal/obs"
	"memtis/internal/policy"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// Ratio expresses a fast:capacity configuration as the fraction of the
// resident set held by the fast tier (§6.1: 1:2 -> 1/3 of RSS, 1:8 ->
// 1/9, 1:16 -> 1/17; §6.2.8: 2:1 -> 2/3).
type Ratio struct {
	Name     string
	FastFrac float64
}

// The tiering configurations used across the evaluation.
var (
	Ratio1to2  = Ratio{"1:2", 1.0 / 3}
	Ratio1to8  = Ratio{"1:8", 1.0 / 9}
	Ratio1to16 = Ratio{"1:16", 1.0 / 17}
	Ratio2to1  = Ratio{"2:1", 2.0 / 3}
)

// MainRatios are the Figure 5 configurations.
var MainRatios = []Ratio{Ratio1to2, Ratio1to8, Ratio1to16}

// Policies lists the systems of Figure 5 in plot order.
var Policies = []string{"autonuma", "autotiering", "tiering-0.8", "tpp", "nimble", "hemem", "memtis"}

// Config tunes a harness invocation.
type Config struct {
	Accesses uint64    // access budget per run
	Seed     int64     // base RNG seed
	CapKind  tier.Kind // capacity-tier technology (NVM default)
	Threads  int       // app threads (0 = cores, i.e. saturated)
	RecordNS uint64    // time-series sampling (0 = off)

	// Trace attaches an event tracer to single runs (RunOne,
	// RunBaseline, RunAllFast). Runner methods ignore it — a tracer
	// serves exactly one machine, so sharing one across parallel cells
	// would interleave streams; set EventDir instead.
	Trace *obs.Tracer
	// EventDir, when non-empty, makes every Runner cell whose output is
	// a sim.Result (the matrix runners, the sweeps, Figures 2, 5-10, 13
	// and 14) write one JSONL event trace into this directory (created
	// if missing), named <workload>_<ratio>_<policy>.events.jsonl with
	// ':' spelled "to".
	EventDir string

	// Faults is the fault-injection schedule applied to every machine
	// the harness builds (see tier.FaultConfig and DESIGN.md §6). The
	// zero value disables injection; a zero Faults.Seed derives the
	// plan seed from the machine seed, so matrix cells fault
	// independently but deterministically.
	Faults tier.FaultConfig

	// Topology, when non-nil, replaces the default two-tier machine
	// with an explicit tier chain on every machine the harness builds
	// (the ratio-derived FastBytes/CapBytes are then ignored — the
	// topology's own capacities rule). The depth sweep builds per-cell
	// topologies itself and does not read this field.
	Topology *tier.Topology
	// Admission, when non-nil, installs a migration admission policy
	// (tier.Admission) on every machine the harness builds.
	Admission tier.Admission
	// Mover, when enabled, runs the rate-limited background mover on
	// every machine the harness builds (tier.MoverConfig).
	Mover tier.MoverConfig

	// streamSeed, when non-zero, seeds the Table 2 models' streams in
	// place of Seed (sim.Config.StreamSeed); CellConfig derives it.
	streamSeed int64
	// streams is the capture cache of the fan-out running the cell,
	// nil outside one.
	streams *streams
}

// DefaultConfig returns the harness defaults used by the bench targets.
func DefaultConfig() Config {
	return Config{Accesses: 2_000_000, Seed: 42, CapKind: tier.NVM}
}

// NewPolicy instantiates a policy by name. Fresh state per run.
func NewPolicy(name string) sim.Policy {
	switch name {
	case "autonuma":
		return policy.NewAutoNUMA()
	case "autotiering":
		return policy.NewAutoTiering()
	case "tiering-0.8":
		return policy.NewTiering08()
	case "tpp":
		return policy.NewTPP()
	case "nimble":
		return policy.NewNimble()
	case "multi-clock":
		return policy.NewMultiClock()
	case "hemem", "hemem+":
		return policy.NewHeMem()
	case "memtis":
		return memtis.New(memtis.Config{})
	case "memtis-ns":
		return memtis.New(memtis.Config{SplitDisabled: true})
	case "memtis-nowarm":
		return memtis.New(memtis.Config{WarmDisabled: true})
	case "memtis-vanilla":
		return memtis.New(memtis.Config{SplitDisabled: true, WarmDisabled: true})
	case "memtis-hybrid":
		return memtis.New(memtis.Config{HybridScan: true})
	case "static":
		return policy.NewStatic()
	case "all-fast":
		return policy.NewPinned(tier.FastTier, "all-fast")
	case "all-capacity":
		return policy.NewPinned(tier.CapacityTier, "all-capacity")
	default:
		panic(fmt.Sprintf("bench: unknown policy %q", name))
	}
}

// AllPolicies lists every name NewPolicy accepts, in a stable order —
// the conformance suite iterates it so a newly registered policy is
// exercised automatically.
var AllPolicies = []string{
	"autonuma", "autotiering", "tiering-0.8", "tpp", "nimble",
	"multi-clock", "hemem", "hemem+", "memtis", "memtis-ns",
	"memtis-nowarm", "memtis-vanilla", "memtis-hybrid", "static",
	"all-fast", "all-capacity",
}

// KnownPolicy reports whether NewPolicy accepts name, so callers can
// validate user input before fanning out instead of panicking
// mid-matrix.
func KnownPolicy(name string) bool {
	for _, p := range AllPolicies {
		if p == name {
			return true
		}
	}
	return false
}

// minTier is the smallest tier the harness builds: two huge frames.
const minTier = 2 * tier.HugePageSize

// fastTier sizes a ratio's fast tier: r.FastFrac of the resident set,
// floored at minTier.
func fastTier(rss uint64, r Ratio) uint64 {
	return max(uint64(float64(rss)*r.FastFrac), minTier)
}

// capTier sizes a tier that holds a whole resident set: the set plus a
// quarter, plus 16 huge frames of head-room.
func capTier(rss uint64) uint64 { return rss + rss/4 + 16*tier.HugePageSize }

// machine is the sim.Config every harness run builds: the given fast
// and capacity tier sizes, THP on, and cfg's machine-wide settings.
func machine(cfg Config, fast, capacity uint64) sim.Config {
	return sim.Config{
		FastBytes:  fast,
		CapBytes:   capacity,
		CapKind:    cfg.CapKind,
		THP:        true,
		Threads:    cfg.Threads,
		Seed:       cfg.Seed,
		StreamSeed: cfg.streamSeed,
		RecordNS:   cfg.RecordNS,
		Trace:      cfg.Trace,
		Faults:     cfg.Faults,
		Topology:   cfg.Topology,
		Admission:  cfg.Admission,
		Mover:      cfg.Mover,
	}
}

// baselineMachine is the all-capacity normalisation machine: a token
// fast tier and the whole resident set on the capacity tier. Like
// every reference run, it records no series.
func baselineMachine(cfg Config, rss uint64) sim.Config {
	cfg.RecordNS = 0
	return machine(cfg, minTier, capTier(rss))
}

// MachineFor builds the machine configuration for a workload at a
// tiering ratio. The capacity tier always holds the full resident set
// plus head-room — as in the paper's testbed, only the fast tier is the
// constrained resource. polName adjustments: HeMem's configured fast
// tier is reduced by its over-allocation (Table 3 accounting, §6.1);
// "hemem+" skips the reduction (§6.2.9).
func MachineFor(spec workload.Spec, r Ratio, polName string, cfg Config) sim.Config {
	rss := spec.RSSBytes()
	fast := fastTier(rss, r)
	if polName == "hemem" {
		over := spec.SmallBytes()
		if over < fast/2 {
			fast -= over
		} else {
			fast /= 2
		}
		fast = max(fast, minTier)
	}
	return machine(cfg, fast, capTier(rss))
}

// RunOne executes one (workload, policy, ratio) cell. Inside a
// fan-out, it and every other run of a Table 2 model replay the
// fan-out's capture of the model's stream.
func RunOne(wname, polName string, r Ratio, cfg Config) sim.Result {
	w := workload.MustNew(wname)
	mc := MachineFor(w.Spec(), r, polName, cfg)
	return sim.Run(mc, NewPolicy(polName), cfg.streams.load(w, mc, cfg.Accesses), cfg.Accesses)
}

// RunBaseline executes the all-capacity-tier (THP) run that every
// figure normalises against.
func RunBaseline(wname string, cfg Config) sim.Result {
	w := workload.MustNew(wname)
	mc := baselineMachine(cfg, w.Spec().RSSBytes())
	return sim.Run(mc, NewPolicy("all-capacity"), cfg.streams.load(w, mc, cfg.Accesses), cfg.Accesses)
}

// RunAllFast executes the all-DRAM reference (fast tier holds the whole
// resident set) with or without THP (Figure 7's dashed lines).
func RunAllFast(wname string, thp bool, cfg Config) sim.Result {
	w := workload.MustNew(wname)
	cfg.RecordNS = 0 // a reference run records no series
	mc := machine(cfg, capTier(w.Spec().RSSBytes()), minTier)
	mc.THP = thp
	return sim.Run(mc, NewPolicy("all-fast"), cfg.streams.load(w, mc, cfg.Accesses), cfg.Accesses)
}

// Norm returns r's throughput normalised to the baseline run.
func Norm(r, base sim.Result) float64 {
	if base.Throughput == 0 {
		return 0
	}
	return r.Throughput / base.Throughput
}

// Geomean computes the geometric mean of positive values.
func Geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// Cell is one figure data point.
type Cell struct {
	Workload string
	Ratio    string
	Policy   string
	Value    float64 // normalised performance unless stated otherwise
	Result   sim.Result
}

// Matrix is a set of cells with lookup helpers.
type Matrix struct {
	Cells []Cell
}

// CountersCSV renders every cell's counter snapshot as CSV
// (workload,ratio,policy,metric,kind,value), cells in plot order and
// metrics sorted by name within a cell — the per-cell counter dump
// written next to figure output. Counters are additive observability:
// they never feed back into the figures themselves.
func (m *Matrix) CountersCSV() string {
	var b strings.Builder
	b.WriteString("workload,ratio,policy,metric,kind,value\n")
	for _, c := range m.Cells {
		for _, mt := range c.Result.Counters {
			fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%d\n",
				c.Workload, c.Ratio, c.Policy, mt.Name, mt.Kind, mt.Value)
		}
	}
	return b.String()
}

// Get fetches one cell's value.
func (m *Matrix) Get(w, r, p string) (float64, bool) {
	for _, c := range m.Cells {
		if c.Workload == w && c.Ratio == r && c.Policy == p {
			return c.Value, true
		}
	}
	return 0, false
}

// Best returns the winning policy of a (workload, ratio) cell and the
// runner-up, with their values.
func (m *Matrix) Best(w, r string) (best, second string, bv, sv float64) {
	type pv struct {
		p string
		v float64
	}
	var vals []pv
	for _, c := range m.Cells {
		if c.Workload == w && c.Ratio == r {
			vals = append(vals, pv{c.Policy, c.Value})
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].v > vals[j].v })
	if len(vals) > 0 {
		best, bv = vals[0].p, vals[0].v
	}
	if len(vals) > 1 {
		second, sv = vals[1].p, vals[1].v
	}
	return best, second, bv, sv
}
