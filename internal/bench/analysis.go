package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	memtis "memtis/internal/core"
	"memtis/internal/damon"
	"memtis/internal/pebs"
	"memtis/internal/policy"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// Table1 reproduces the qualitative comparison of tiering systems.
func Table1() Table {
	t := Table{
		Title:  "Table 1: comparison of tiered memory systems",
		Header: []string{"system", "tracking", "subpage", "promotion metric", "demotion metric", "thresholding", "critical path", "page size"},
	}
	for _, tr := range policy.AllTraits() {
		sub := "No"
		if tr.SubpageTracking {
			sub = "Yes"
		}
		t.AddRow(tr.Name, tr.Mechanism, sub, tr.PromotionMetric, tr.DemotionMetric, tr.Thresholding, tr.CriticalPath, tr.PageSize)
	}
	return t
}

// Fig1Result summarises one DAMON configuration's run.
type Fig1Result struct {
	Config   string
	CPU      float64 // monitor CPU overhead (fraction of one core)
	Accuracy float64 // hot-decile agreement with ground truth
	Regions  int
}

// damonConfig is one DAMON monitor setting of Figure 1.
type damonConfig struct {
	name     string
	interval uint64 // ns of virtual time
	minR     int
	maxR     int
}

// Fig1 reproduces the DAMON granularity/interval/accuracy trade-off on
// a 654.roms-like trace whose hot band drifts through the address space
// over time (the banded heat map of the paper's Figure 1): fine+fast is
// accurate but CPU-hungry; coarse regions blur space; long intervals
// blur time. Intervals are scaled with the simulation's virtual-time
// compression (~100x). Each configuration is one cell on cfg.Seed.
func (r *Runner) Fig1(ctx context.Context, cfg Config) ([]Fig1Result, Table, error) {
	// Paper: 5ms-10-1000, 500ms-10K-20K, 5ms-10K-20K. Intervals are
	// scaled 1/5 (and the 500ms config 1/12.5) so the sampled-page
	// checks retain paper-equivalent signal per aggregation window over
	// the compressed run (DESIGN.md §4).
	dcfgs := []damonConfig{
		{"5ms-10-1000", 1_000_000, 10, 1000},
		{"500ms-10K-20K", 40_000_000, 10_000, 20_000},
		{"5ms-10K-20K", 1_000_000, 10_000, 20_000},
	}
	if cfg.Accesses < 3_000_000 {
		cfg.Accesses = 3_000_000 // the slow config needs enough run to aggregate
	}
	out := make([]Fig1Result, len(dcfgs))
	tasks := make([]cellTask, len(dcfgs))
	for i, dc := range dcfgs {
		tasks[i] = cellTask{label: "654.roms-like/" + dc.name, run: func() uint64 {
			var now uint64
			out[i], now = runDAMON(cfg, dc)
			return now
		}}
	}
	if err := r.do(ctx, tasks); err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 1: DAMON configuration trade-off (654.roms-like drifting trace)",
		Header: []string{"config", "cpu_overhead", "heatmap_accuracy", "regions"},
	}
	for _, res := range out {
		t.AddRow(res.Config, res.CPU, res.Accuracy, res.Regions)
	}
	return out, t, nil
}

// runDAMON drives the drifting trace under one DAMON configuration and
// scores it, returning the virtual time simulated.
func runDAMON(cfg Config, dc damonConfig) (Fig1Result, uint64) {
	const (
		pages     = 512 << 10 // 2GB footprint: regions must aggregate pages
		bandFrac  = 6         // hot band covers 1/6 of the space
		phases    = 8         // band drifts through 8 positions
		truthWins = 32
	)
	mc := sim.Config{
		FastBytes: 700 << 20,
		CapBytes:  2200 << 20,
		CapKind:   cfg.CapKind,
		THP:       true,
		Seed:      cfg.Seed,
	}
	m := sim.NewMachine(mc, NewPolicy("static"))
	reg := m.Reserve(pages * tier.BasePageSize)
	mon := damon.NewMonitor(damon.Config{
		SampleIntervalNS: dc.interval,
		MinRegions:       dc.minR,
		MaxRegions:       dc.maxR,
		Seed:             cfg.Seed,
	}, reg.BaseVPN, reg.BaseVPN+reg.Pages)
	// Estimated run length for truth-window bucketing.
	estRunNS := cfg.Accesses * 110
	windowNS := estRunNS / truthWins
	windows := make([]map[uint64]uint64, truthWins+8)
	for i := range windows {
		windows[i] = make(map[uint64]uint64)
	}
	m.AccessObserver = func(vpn uint64, write bool, now uint64) {
		mon.Observe(vpn, now)
		if wi := int(now / windowNS); wi < len(windows) {
			windows[wi][vpn]++
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	band := uint64(pages / bandFrac)
	// Scattered hot singletons (fine stripes of the roms heat map):
	// invisible to coarse regions, stable over time.
	scattered := make([]uint64, pages/64)
	for i := range scattered {
		scattered[i] = rng.Uint64() % pages
	}
	zsc := rand.NewZipf(rng, 1.2, 1, uint64(len(scattered)-1))
	for i := uint64(0); m.Accesses() < cfg.Accesses; i++ {
		phase := (m.Accesses() * phases) / cfg.Accesses
		base := (phase * (pages - band)) / (phases - 1)
		var vpn uint64
		switch r := rng.Intn(100); {
		case r < 45:
			// Drifting band with an internal gradient: density
			// rises toward the band start, so fine-grained monitors
			// can rank inside the band while coarse regions blur
			// the gradient away.
			f := rng.Float64()
			vpn = reg.BaseVPN + base + uint64(float64(band)*f*f)
		case r < 80:
			vpn = reg.BaseVPN + scattered[zsc.Uint64()]
		default:
			vpn = reg.BaseVPN + rng.Uint64()%pages
		}
		m.Access(vpn, rng.Intn(4) == 0)
	}
	mon.Finish(m.Now())
	return Fig1Result{
		Config:   dc.name,
		CPU:      mon.CPUOverhead(),
		Accuracy: damon.Accuracy(mon.Snapshots(), windows, windowNS),
		Regions:  mon.Regions(),
	}, m.Now()
}

// Fig2Series is HeMem's classified hot-set size over time for one
// workload, against the fast tier size.
type Fig2Series struct {
	Workload  string
	FastBytes uint64
	Points    []sim.SeriesPoint
}

// Fig2 reproduces HeMem's static-threshold pathology: the classified
// hot set bears no relation to the fast-tier size (PageRank: far below;
// XSBench: transiently far above). Every run keeps cfg.Seed.
func (r *Runner) Fig2(ctx context.Context, cfg Config) ([]Fig2Series, Table, error) {
	cfg.RecordNS = recordPeriod(cfg)
	workloads := []string{"pagerank", "xsbench"}
	var cells []simCell
	for _, wname := range workloads {
		cells = append(cells, runOneCell(wname, Ratio1to2, "hemem"))
	}
	res, err := r.runSims(ctx, cfg, baseSeed, cells)
	if err != nil {
		return nil, Table{}, err
	}
	var out []Fig2Series
	t := Table{
		Title:  "Figure 2: hot set identified by HeMem vs fast tier size",
		Header: []string{"workload", "fast_mb", "hot_min_mb", "hot_max_mb", "hot_final_mb"},
	}
	for i, wname := range workloads {
		fast := MachineFor(workload.MustNew(wname).Spec(), Ratio1to2, "hemem", cfg).FastBytes
		out = append(out, Fig2Series{Workload: wname, FastBytes: fast, Points: res[i].Series})
		minH, maxH := ^uint64(0), uint64(0)
		var final uint64
		for _, p := range res[i].Series {
			if p.HotBytes < minH {
				minH = p.HotBytes
			}
			if p.HotBytes > maxH {
				maxH = p.HotBytes
			}
			final = p.HotBytes
		}
		if minH == ^uint64(0) {
			minH = 0
		}
		t.AddRow(wname, mb(fast), mb(minH), mb(maxH), mb(final))
	}
	return out, t, nil
}

// Fig3 reproduces the hotness-vs-utilization analysis (Liblinear vs
// Silo) from the subpage counters of a MEMTIS run with THP. Every run
// keeps cfg.Seed.
func (r *Runner) Fig3(ctx context.Context, cfg Config) (map[string][]workload.UtilizationSample, Table, error) {
	cfg.Trace = nil // see Config.Trace
	workloads := []string{"liblinear", "silo"}
	samples := make([][]workload.UtilizationSample, len(workloads))
	tasks := make([]cellTask, len(workloads))
	for i, wname := range workloads {
		tasks[i] = cellTask{label: wname + "/1:2/memtis-ns", run: func() uint64 {
			w := workload.MustNew(wname)
			m := sim.NewMachine(MachineFor(w.Spec(), Ratio1to2, "memtis-ns", cfg), NewPolicy("memtis-ns"))
			w.Run(m, cfg.Accesses)
			samples[i] = workload.CollectUtilization(m)
			return m.Now()
		}}
	}
	if err := r.do(ctx, tasks); err != nil {
		return nil, Table{}, err
	}
	out := make(map[string][]workload.UtilizationSample)
	t := Table{
		Title:  "Figure 3: huge page utilization of hot pages",
		Header: []string{"workload", "hot_pages", "median_hot_util", "mean_hot_util"},
	}
	for i, wname := range workloads {
		out[wname] = samples[i]
		hot := hotUtilizations(samples[i])
		t.AddRow(wname, len(hot), median(hot), mean(hot))
	}
	return out, t, nil
}

// hotUtilizations selects the utilization of the hottest-quartile huge
// pages by rank (the dots that matter in Figure 3).
func hotUtilizations(samples []workload.UtilizationSample) []float64 {
	if len(samples) == 0 {
		return nil
	}
	sorted := append([]workload.UtilizationSample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].AccessCount > sorted[j].AccessCount })
	k := len(sorted) / 4
	if k < 1 {
		k = 1
	}
	out := make([]float64, 0, k)
	for _, s := range sorted[:k] {
		out = append(out, float64(s.Utilization))
	}
	return out
}

// Table2 reports the scaled benchmark characteristics: RSS and the
// measured ratio of huge pages after a full allocation pass. Every run
// keeps cfg.Seed.
func (r *Runner) Table2(ctx context.Context, cfg Config) (Table, error) {
	cfg.Trace = nil // see Config.Trace
	specs := workload.Specs()
	rows := make([][]interface{}, len(specs))
	tasks := make([]cellTask, len(specs))
	for i, spec := range specs {
		tasks[i] = cellTask{label: spec.Name + "/1:2/static", run: func() uint64 {
			w := workload.MustNew(spec.Name)
			m := sim.NewMachine(MachineFor(spec, Ratio1to2, "static", cfg), NewPolicy("static"))
			// Run enough accesses to allocate the full footprint.
			w.Run(m, spec.RSSBytes()/tier.BasePageSize*2)
			rows[i] = []interface{}{spec.Name,
				fmt.Sprintf("%.1f", spec.PaperRSSGB),
				mb(m.AS.RSSBytes()),
				fmt.Sprintf("%.1f%%", spec.RHP*100),
				fmt.Sprintf("%.1f%%", workload.HugeAllocRatio(m)*100),
				spec.Description}
			return m.Now()
		}}
	}
	if err := r.do(ctx, tasks); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Table 2: benchmark characteristics (scaled 1 paper-GB = 8MB)",
		Header: []string{"benchmark", "paper_rss_gb", "sim_rss_mb", "paper_rhp", "measured_rhp", "description"},
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// Table3 measures HeMem's over-allocation (fast-tier bytes taken by
// small allocations) per benchmark. Every run keeps cfg.Seed.
func (r *Runner) Table3(ctx context.Context, cfg Config) (map[string]uint64, Table, error) {
	cfg.Trace = nil // see Config.Trace
	specs := workload.Specs()
	over := make([]uint64, len(specs))
	tasks := make([]cellTask, len(specs))
	for i, spec := range specs {
		tasks[i] = cellTask{label: spec.Name + "/1:2/hemem+", run: func() uint64 {
			w := workload.MustNew(spec.Name)
			pol := NewPolicy("hemem").(*policy.HeMem)
			m := sim.NewMachine(MachineFor(spec, Ratio1to2, "hemem+", cfg), pol)
			w.Run(m, spec.RSSBytes()/tier.BasePageSize*2)
			over[i] = pol.OverAllocBytes()
			return m.Now()
		}}
	}
	if err := r.do(ctx, tasks); err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Table 3: over-allocation sizes of HeMem",
		Header: []string{"benchmark", "paper_mb", "paper_scaled_kb", "measured_kb"},
	}
	out := make(map[string]uint64)
	for i, spec := range specs {
		out[spec.Name] = over[i]
		scaled := spec.PaperOverAllocMB * workload.BytesPerPaperGB / 1024 / 1024
		t.AddRow(spec.Name, fmt.Sprintf("%.0f", spec.PaperOverAllocMB),
			fmt.Sprintf("%.0f", scaled), over[i]/1024)
	}
	return out, t, nil
}

// OverheadResult is one §6.3.5 row.
type OverheadResult struct {
	Workload     string
	AvgCPU       float64
	FinalPeriod  uint64
	PerfDeltaPct float64 // slowdown vs sampling disabled
}

// Overhead reproduces §6.3.5: ksampled's CPU usage, its period
// adaptation per workload, and the end-to-end performance impact. Each
// workload's sampled run and its near-free-sampling reference are two
// cells; every run keeps cfg.Seed.
func (r *Runner) Overhead(ctx context.Context, cfg Config) ([]OverheadResult, Table, error) {
	cfg.Trace = nil // see Config.Trace
	specs := workload.Specs()
	out := make([]OverheadResult, len(specs))
	tput := make([][2]float64, len(specs)) // sampled, reference
	var tasks []cellTask
	for i, spec := range specs {
		out[i].Workload = spec.Name
		run := func(ref bool) uint64 {
			mcfg := memtis.Config{}
			if ref {
				// Near-free sampling isolates the tracking overhead.
				mcfg.Sampler = pebs.Config{CostNS: 1}
			}
			pol := memtis.New(mcfg)
			res := sim.Run(MachineFor(spec, Ratio1to8, "memtis", cfg), pol, workload.MustNew(spec.Name), cfg.Accesses)
			if ref {
				tput[i][1] = res.Throughput
			} else {
				tput[i][0] = res.Throughput
				out[i].AvgCPU = pol.Sampler().AvgCPUUsage() * 100
				out[i].FinalPeriod = pol.Sampler().LoadPeriod()
			}
			return res.AppNS
		}
		tasks = append(tasks,
			cellTask{label: spec.Name + "/1:8/memtis", run: func() uint64 { return run(false) }},
			cellTask{label: spec.Name + "/1:8/memtis-freesample", run: func() uint64 { return run(true) }})
	}
	if err := r.do(ctx, tasks); err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "6.3.5: ksampled overhead",
		Header: []string{"workload", "avg_cpu_pct", "final_load_period", "perf_overhead_pct"},
	}
	for i := range out {
		if ref := tput[i][1]; ref > 0 {
			out[i].PerfDeltaPct = (ref - tput[i][0]) / ref * 100
		}
		t.AddRow(out[i].Workload, out[i].AvgCPU, out[i].FinalPeriod, out[i].PerfDeltaPct)
	}
	return out, t, nil
}

func mb(b uint64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[len(c)/2]
}

// recordPeriod picks a series sampling period yielding ~120 points.
func recordPeriod(cfg Config) uint64 {
	// Virtual time per access averages ~150ns.
	total := cfg.Accesses * 150
	p := total / 120
	if p < 50_000 {
		p = 50_000
	}
	return p
}
