package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"memtis/internal/bench"
	"memtis/internal/sim"
	"memtis/internal/workload"
)

// outcome is one run of a job: every cell's result in the job's order,
// and the cells that failed.
type outcome struct {
	labels     []string
	results    map[string]sim.Result
	values     map[string]float64 // matrix values (normalised throughput)
	digest     hash.Hash64
	cells      int
	accesses   uint64 // budgeted simulated accesses
	failures   []string
	violations int
	// Per-seed host times of the hunt, in ms.
	seedMS, shardedSeedMS []float64
}

func newOutcome() *outcome {
	return &outcome{results: map[string]sim.Result{}, values: map[string]float64{}, digest: fnv.New64a()}
}

// add records one cell: its result, the matrix value derived from it,
// and whether it ran its budget with every tenant's fast-tier floor
// held.
func (o *outcome) add(label string, res sim.Result, value float64, budget uint64) {
	o.labels = append(o.labels, label)
	o.results[label] = res
	o.values[label] = value
	o.cells++
	o.accesses += budget
	fmt.Fprintf(o.digest, "%s %v %+v\n", label, value, res)
	if res.Accesses != budget {
		o.fail(label, fmt.Sprintf("ran %d accesses, want %d", res.Accesses, budget))
	}
	for _, mt := range res.Counters {
		if strings.HasSuffix(mt.Name, "/floor_violations") && mt.Value > 0 {
			o.fail(label, fmt.Sprintf("%s = %d", mt.Name, mt.Value))
		}
	}
}

func (o *outcome) fail(label, why string) { o.failures = append(o.failures, label+": "+why) }

// job is one invocation for one workload.
type job struct {
	workload string
	seed     int64
	seconds  float64 // how long the end-to-end job is repeated
	trace    bool    // add the traced pass and report per-layer metrics
	scale    float64 // access budgets relative to the full job
	workers  int     // matrix workers
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what one job measured and checked.
type report struct {
	walls     []float64 // wall time of each round of the job
	e2e       []metric  // end-to-end metrics, tracing off
	layers    []metric  // per-layer metrics (traced pass)
	extra     []metric  // printed only: per-module and per-workload detail
	refs      []string  // per-reference-cell layer breakdown lines
	digest    uint64
	attempted int
	failed    int
	problems  []string // output checks that failed
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

func (r *report) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// The setup pass is repeated for setupShare of the run time, and at
// least setupMinReps times.
const (
	setupShare   = 0.05
	setupMinReps = 3
)

// measure runs a job: the setup pass, the end-to-end job repeated for
// the job's seconds, then (when tracing) the traced pass over the
// workload's reference cells.
func measure(ctx context.Context, j job) (*report, error) {
	wl, ok := lookupWorkload(j.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", j.workload)
	}
	rep := &report{}

	// Setup: build the cell inputs, then a machine per cell with the
	// workload's reservations and generators in place (a zero budget
	// issues no access).
	var setups []float64
	var cells []cell
	for start := time.Now(); len(setups) < setupMinReps || time.Since(start).Seconds() < setupShare*j.seconds; {
		t := time.Now()
		var err error
		if cells, err = wl.cells(j.seed, j.scale); err != nil {
			return nil, err
		}
		for _, c := range cells {
			c.load.Run(sim.NewMachine(c.config, c.policy(noWrap)), 0)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	var walls, cpus, allocs []float64
	var first *outcome
	for start := time.Now(); ; {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0 := cpuSeconds()
		t := time.Now()
		o, err := wl.run(ctx, j.seed, j.scale, j.workers)
		wall := time.Since(t).Seconds()
		cpu := cpuSeconds() - c0
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		walls, cpus = append(walls, wall), append(cpus, cpu)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		rep.attempted += o.cells
		rep.failed += len(o.failures)
		for _, f := range o.failures {
			rep.problem("cell failed: %s", f)
		}
		if first == nil {
			first, rep.digest = o, o.digest.Sum64()
		} else if d := o.digest.Sum64(); d != rep.digest {
			rep.problem("round %d digest %016x differs from round 1's %016x", len(walls), d, rep.digest)
		}
		if time.Since(start).Seconds()+wall > j.seconds {
			break
		}
	}
	rep.walls = walls
	wall := median(walls)
	rep.e2e = []metric{
		{"setup_s", median(setups), "s"},
		{"wall_s", wall, "s"},
		{"cpu_s", median(cpus), "s"},
		{"maccess_per_s", float64(first.accesses) / wall / 1e6, "Maccess/s"},
		{"alloc_mb", median(allocs), "MB"},
	}
	rep.extra = append(rep.extra, metric{"fail_frac", ratio(float64(rep.failed), float64(rep.attempted)), "fraction"})
	if first.seedMS != nil {
		rep.extra = append(rep.extra,
			metric{"scenario.seed_ms_p50", median(first.seedMS), "ms"},
			metric{"scenario.seed_ms_p90", quantile(first.seedMS, 0.9), "ms"},
			metric{"scenario.sharded_seed_ms_p50", median(first.shardedSeedMS), "ms"},
		)
	}
	if j.workload == "fig5" {
		var vals []float64
		for _, s := range workload.Specs() {
			vals = append(vals, first.values[matrixLabel(s.Name, bench.Ratio1to8.Name, "memtis")])
		}
		rep.extra = append(rep.extra, metric{"model.memtis_geomean_1to8", bench.Geomean(vals), "ratio"})
	}
	if j.trace {
		tracePass(rep, cells, first)
		rep.layers = append(rep.layers,
			metric{"bench.parallel_eff", median(cpus) / (float64(runtime.GOMAXPROCS(0)) * wall), "ratio"},
			metric{"bench.rss_peak_mb", maxRSSMB(), "MB"},
		)
	}
	return rep, nil
}

// tracePass measures each layer on the workload's reference cells: an
// untraced run and a traced run (both checked against the job's own
// result for the cell), and a layer-by-layer replay of the cell's
// stream where it has one. It also reads the modelled counters of
// every cell the job ran.
func tracePass(rep *report, cells []cell, job *outcome) {
	timer := timerNS()
	var (
		all, pol, core       hookStats
		untraced, traced     time.Duration
		cellMS               []float64
		bySpaces             = map[int][2]float64{} // spaces -> {host ns, accesses}
		rp                   replayCost
		replayed, residualNS float64
	)
	for _, c := range cells {
		if !c.ref {
			continue
		}
		rep.attempted++
		want, ok := job.results[c.label]
		if !ok {
			rep.problem("reference cell %s is missing from the job's results", c.label)
			continue
		}
		u, tr := runCell(c, false), runCell(c, true)
		if !reflect.DeepEqual(u.res, want) || !reflect.DeepEqual(tr.res, want) {
			rep.problem("reference cell %s differs from the job's run of it", c.label)
		}
		if tr.audit != nil {
			rep.failed++
			rep.problem("reference cell %s: audit: %v", c.label, tr.audit)
		}
		untraced += u.wall
		traced += tr.wall
		cellMS = append(cellMS, float64(u.wall)/1e6)
		acc := float64(u.res.Accesses)
		s := bySpaces[c.spaces]
		bySpaces[c.spaces] = [2]float64{s[0] + float64(u.wall), s[1] + acc}
		all.add(tr.hooks)
		if strings.HasPrefix(tr.policy, "memtis") {
			core.add(tr.hooks)
		} else {
			pol.add(tr.hooks)
		}
		cellNS := float64(u.wall) / acc
		onAcc, tick := tr.hooks.onAccessPerAccess(timer), tr.hooks.tickPerAccess(timer)
		line := fmt.Sprintf("ref %s cell_ns=%.2f onaccess_ns_per_access=%.2f tick_ns_per_access=%.2f",
			c.label, cellNS, onAcc, tick)
		if c.stream != nil {
			r := replay(c)
			if r.fidelity != nil {
				rep.problem("%v", r.fidelity)
			}
			n := float64(r.n)
			gen, batch := float64(r.gen)/n, float64(r.batch)/n
			res := cellNS - gen - batch - onAcc - tick
			line += fmt.Sprintf(" gen_ns=%.2f batch_ns=%.2f residual_ns=%.2f", gen, batch, res)
			residualNS += res * acc
			replayed += acc
			rp.add(r)
		}
		rep.refs = append(rep.refs, line)
	}

	var m modelled
	for _, l := range job.labels {
		m.add(job.results[l])
	}
	perOp := func(d time.Duration) float64 { return ratio(float64(d), float64(rp.n)) }
	rep.layers = []metric{
		{"workload.gen_ns", perOp(rp.gen), "ns"},
		{"sim.batch_ns", perOp(rp.batch), "ns"},
		{"vm.touch_ns", perOp(rp.touch), "ns"},
		{"vm.touchfast_ns", perOp(rp.touchFast), "ns"},
		{"tlb.access_ns", perOp(rp.tlb), "ns"},
		{"pebs.feed_ns", perOp(rp.feed), "ns"},
		{"sim.cell_ns", ratio(float64(untraced), float64(all.accesses)), "ns"},
		{"sim.residual_ns", ratio(residualNS, replayed), "ns"},
		{"hook.onaccess_share", all.onAccessShare(), "ratio"},
		{"hook.onaccess_ns", all.onAccessNS(timer), "ns"},
		{"hook.onaccess_ns_per_access", all.onAccessPerAccess(timer), "ns"},
		{"hook.tick_ns_per_access", all.tickPerAccess(timer), "ns"},
		{"hook.placenew_calls", float64(all.placeNew), "count"},
		{"hook.placenew_ns", all.placeNewNSPerCall(timer), "ns"},
		{"tenant.switches", float64(all.switches), "count"},
		{"trace.timer_ns", timer, "ns"},
		{"trace.overhead_frac", ratio(float64(traced-untraced), float64(untraced)), "fraction"},
		{"bench.cells", float64(job.cells), "count"},
		{"bench.cell_samples", float64(len(cellMS)), "count"},
		{"bench.cell_ms_p50", median(cellMS), "ms"},
		{"bench.cell_ms_p90", quantile(cellMS, 0.9), "ms"},
		{"bench.cell_ms_max", quantile(cellMS, 1), "ms"},
		{"scenario.violations", float64(job.violations), "count"},
		{"tier.mover_moved_mb", float64(m.moved) / (1 << 20), "MB"},
		{"tier.migrate_aborts", float64(m.aborts), "count"},
		{"tier.admission_rejected", float64(m.rejected), "count"},
		{"vm.faults", float64(m.faults), "count"},
		{"vm.migrated_mb", float64(m.migrated) / (1 << 20), "MB"},
		{"vm.splits", float64(m.splits), "count"},
		{"tlb.miss_ratio", ratio(float64(m.tlbMisses), float64(m.tlbLookups)), "ratio"},
		{"core.samples", float64(m.samples), "count"},
		{"model.virt_s", m.virtS, "s"},
		{"model.fast_hit_ratio", ratio(m.fastHits, float64(m.accesses)), "ratio"},
		{"model.daemon_cores", ratio(m.daemonCores, float64(len(job.labels))), "cores"},
	}

	for _, mod := range []struct {
		name string
		h    hookStats
	}{{"policy", pol}, {"core", core}} {
		if mod.h.accesses == 0 {
			continue
		}
		rep.extra = append(rep.extra,
			metric{mod.name + ".onaccess_share", mod.h.onAccessShare(), "ratio"},
			metric{mod.name + ".onaccess_ns", mod.h.onAccessNS(timer), "ns"},
			metric{mod.name + ".onaccess_ns_per_access", mod.h.onAccessPerAccess(timer), "ns"},
			metric{mod.name + ".tick_ns_per_access", mod.h.tickPerAccess(timer), "ns"},
			metric{mod.name + ".placenew_calls", float64(mod.h.placeNew), "count"},
			metric{mod.name + ".placenew_ns", mod.h.placeNewNSPerCall(timer), "ns"},
		)
	}
	// Host cost per access by tenant count, and the most-tenants cost
	// over the single-tenant cost.
	var spaces []int
	for n := range bySpaces {
		spaces = append(spaces, n)
	}
	sort.Ints(spaces)
	if len(spaces) > 1 {
		nsAt := func(n int) float64 { return ratio(bySpaces[n][0], bySpaces[n][1]) }
		for _, n := range spaces {
			rep.extra = append(rep.extra, metric{fmt.Sprintf("tenant.ns_per_access_%d", n), nsAt(n), "ns"})
		}
		rep.extra = append(rep.extra, metric{"tenant.overhead_ratio", ratio(nsAt(spaces[len(spaces)-1]), nsAt(spaces[0])), "ratio"})
	}
}

// modelled sums the simulated (deterministic) statistics of a job's
// cells.
type modelled struct {
	accesses, faults, splits, migrated, aborts uint64
	moved, rejected, samples                   uint64
	tlbMisses, tlbLookups                      uint64
	virtS, daemonCores, fastHits               float64
}

func (m *modelled) add(res sim.Result) {
	m.accesses += res.Accesses
	m.faults += res.VM.Faults
	m.splits += res.VM.Splits
	m.migrated += res.VM.MigratedBytes
	m.aborts += res.VM.MigrateAborts
	m.tlbMisses += res.TLB.Misses4K + res.TLB.Misses2M
	m.tlbLookups += res.TLB.Lookups4K + res.TLB.Lookups2M
	m.virtS += float64(res.AppNS) / 1e9
	m.daemonCores += res.DaemonUtil
	m.fastHits += res.FastHitRatio * float64(res.Accesses)
	for _, mt := range res.Counters {
		switch {
		case strings.HasPrefix(mt.Name, "memtis") && strings.HasSuffix(mt.Name, "/samples"):
			m.samples += mt.Value
		case mt.Name == "mover/moved_bytes":
			m.moved += mt.Value
		case mt.Name == "admission/rejected":
			m.rejected += mt.Value
		}
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the process's peak resident set (Linux reports KB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
