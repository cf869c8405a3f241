package bench

import (
	"context"
	"fmt"

	memtis "memtis/internal/core"
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// Fig5 runs the headline comparison: every workload x ratio x system,
// normalised to the all-capacity-tier (THP) run, plus the geomean row.
// The full cell matrix plus baselines fan out; rows assemble in plot
// order.
func (r *Runner) Fig5(ctx context.Context, cfg Config, workloads []string, ratios []Ratio, pols []string) (*Matrix, Table, error) {
	if workloads == nil {
		workloads = workloadNames()
	}
	if ratios == nil {
		ratios = MainRatios
	}
	if pols == nil {
		pols = Policies
	}
	m, err := r.RunMatrix(ctx, cfg, workloads, ratios, pols)
	if err != nil {
		return nil, Table{}, err
	}
	title := fmt.Sprintf("Figure 5: normalized performance (capacity tier: %s)", cfg.CapKind)
	return m, MatrixTable(title, m, workloads, ratios, pols), nil
}

// Fig6 is the Graph500 scalability sweep: paper RSS 128GB to 690GB with
// the fast tier fixed at 64GB. A tighter scale (1GB = 2MB) keeps the
// large points tractable. Each size's baseline and policy runs fan out.
func (r *Runner) Fig6(ctx context.Context, cfg Config, pols []string) (*Matrix, Table, error) {
	if pols == nil {
		pols = Policies
	}
	const scale = 2 << 20 // bytes per paper-GB for this figure
	sizes := []float64{128, 192, 336, 690}
	const fastGB = 64
	var cells []simCell
	for _, gb := range sizes {
		label := fmt.Sprintf("%.0fGB", gb)
		rss := uint64(gb * scale)
		// Access budget grows with footprint so init stays a fraction.
		acc := cfg.Accesses + rss/tier.BasePageSize*3
		load := func() *workload.W {
			w, _ := workload.NewScaled("graph500", gb*scale/workload.BytesPerPaperGB)
			return w
		}
		cells = append(cells, simCell{"graph500", label, "all-capacity", func(c Config) sim.Result {
			mc := baselineMachine(c, rss)
			return sim.Run(mc, NewPolicy("all-capacity"), c.streams.load(load(), mc, acc), acc)
		}})
		for _, p := range pols {
			cells = append(cells, simCell{"graph500", label, p, func(c Config) sim.Result {
				w := load()
				fast := uint64(fastGB * scale)
				if p == "hemem" {
					over := w.Spec().SmallBytes()
					if over < fast/2 {
						fast -= over
					}
				}
				mc := machine(c, fast, capTier(rss))
				return sim.Run(mc, NewPolicy(p), c.streams.load(w, mc, acc), acc)
			}})
		}
	}
	results, err := r.runSims(ctx, cfg, cellSeeds, cells)
	if err != nil {
		return nil, Table{}, err
	}
	m := &Matrix{}
	t := Table{
		Title:  "Figure 6: Graph500 under varying RSS (fast tier fixed 64GB-equivalent)",
		Header: append([]string{"rss_gb"}, pols...),
	}
	per := 1 + len(pols)
	for si, gb := range sizes {
		row := []interface{}{fmt.Sprintf("%.0f", gb)}
		for pi, p := range pols {
			res := results[si*per+1+pi]
			v := Norm(res, results[si*per])
			m.Cells = append(m.Cells, Cell{Workload: "graph500", Ratio: fmt.Sprintf("%.0fGB", gb), Policy: p, Value: v, Result: res})
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return m, t, nil
}

// runOneCell is RunOne as a cell.
func runOneCell(wname string, rt Ratio, p string) simCell {
	return simCell{wname, rt.Name, p, func(c Config) sim.Result { return RunOne(wname, p, rt, c) }}
}

// baselineCell is RunBaseline as a cell.
func baselineCell(wname string) simCell {
	return simCell{wname, "baseline", "all-capacity", func(c Config) sim.Result { return RunBaseline(wname, c) }}
}

// Fig7 is the 2:1 configuration (Meta's production target): MEMTIS vs
// TPP with all-DRAM (with and without THP) references. Each workload's
// five runs (baseline, two all-DRAM references, TPP, MEMTIS) fan out.
func (r *Runner) Fig7(ctx context.Context, cfg Config) (*Matrix, Table, error) {
	workloads := workloadNames()
	pols := []string{"tpp", "memtis"}
	var cells []simCell
	for _, wname := range workloads {
		cells = append(cells, baselineCell(wname),
			simCell{wname, "2:1", "all-dram-thp", func(c Config) sim.Result { return RunAllFast(wname, true, c) }},
			simCell{wname, "2:1", "all-dram-nothp", func(c Config) sim.Result { return RunAllFast(wname, false, c) }})
		for _, p := range pols {
			cells = append(cells, runOneCell(wname, Ratio2to1, p))
		}
	}
	res, err := r.runSims(ctx, cfg, cellSeeds, cells)
	if err != nil {
		return nil, Table{}, err
	}
	m := &Matrix{}
	t := Table{
		Title:  "Figure 7: 2:1 configuration",
		Header: []string{"workload", "alldram_thp", "alldram_nothp", "tpp", "memtis"},
	}
	per := 3 + len(pols)
	for wi, wname := range workloads {
		row := res[wi*per : (wi+1)*per]
		dramTHP, dramNoTHP := Norm(row[1], row[0]), Norm(row[2], row[0])
		trow := []interface{}{wname, dramTHP, dramNoTHP}
		for pi, p := range pols {
			v := Norm(row[3+pi], row[0])
			m.Cells = append(m.Cells, Cell{Workload: wname, Ratio: "2:1", Policy: p, Value: v, Result: row[3+pi]})
			trow = append(trow, v)
		}
		m.Cells = append(m.Cells,
			Cell{Workload: wname, Ratio: "2:1", Policy: "all-dram-thp", Value: dramTHP},
			Cell{Workload: wname, Ratio: "2:1", Policy: "all-dram-nothp", Value: dramNoTHP})
		t.AddRow(trow...)
	}
	return m, t, nil
}

// Fig8 compares MEMTIS against HeMem and HeMem+ with 16 application
// threads (no CPU contention for HeMem's spinning sampler) under 1:2.
func (r *Runner) Fig8(ctx context.Context, cfg Config) (*Matrix, Table, error) {
	cfg.Threads = 16
	workloads := workloadNames()
	pols := []string{"hemem", "hemem+", "memtis"}
	m, err := r.RunMatrix(ctx, cfg, workloads, []Ratio{Ratio1to2}, pols)
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 8: MEMTIS vs HeMem/HeMem+ with 16 threads (1:2)",
		Header: []string{"workload", "hemem", "hemem+", "memtis"},
	}
	for _, wname := range workloads {
		row := []interface{}{wname}
		for _, p := range pols {
			v, _ := m.Get(wname, "1:2", p)
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return m, t, nil
}

// Fig9Series is MEMTIS's identified hot/warm/cold sizes over time.
type Fig9Series struct {
	Workload  string
	Ratio     string
	FastBytes uint64
	Points    []sim.SeriesPoint
}

// Fig9 records MEMTIS's hot-set tracking for four workloads under 1:2
// and 1:8: the identified hot set should hug the fast tier size. Every
// run keeps cfg.Seed.
func (r *Runner) Fig9(ctx context.Context, cfg Config) ([]Fig9Series, Table, error) {
	cfg.RecordNS = recordPeriod(cfg)
	ratios := []Ratio{Ratio1to2, Ratio1to8}
	var cells []simCell
	for _, wname := range []string{"pagerank", "xsbench", "liblinear", "603.bwaves"} {
		for _, rt := range ratios {
			cells = append(cells, runOneCell(wname, rt, "memtis"))
		}
	}
	res, err := r.runSims(ctx, cfg, baseSeed, cells)
	if err != nil {
		return nil, Table{}, err
	}
	var out []Fig9Series
	t := Table{
		Title:  "Figure 9: hot/warm/cold identified by MEMTIS",
		Header: []string{"workload", "ratio", "fast_mb", "hot_mean_mb", "hot_final_mb"},
	}
	for i, c := range cells {
		fast := MachineFor(workload.MustNew(c.workload).Spec(), ratios[i%len(ratios)], "memtis", cfg).FastBytes
		out = append(out, Fig9Series{Workload: c.workload, Ratio: c.ratio, FastBytes: fast, Points: res[i].Series})
		var sum, final uint64
		var n int
		// Skip the allocation warm-up third.
		for j, p := range res[i].Series {
			if j < len(res[i].Series)/3 {
				continue
			}
			sum += p.HotBytes
			final = p.HotBytes
			n++
		}
		meanHot := uint64(0)
		if n > 0 {
			meanHot = sum / uint64(n)
		}
		t.AddRow(c.workload, c.ratio, mb(fast), mb(meanHot), mb(final))
	}
	return out, t, nil
}

// Fig10Row is one workload's ablation outcome.
type Fig10Row struct {
	Workload       string
	PerfVanilla    float64 // normalised to capacity baseline
	PerfSplit      float64
	PerfFull       float64
	TrafficVanilla uint64 // migrated bytes
	TrafficSplit   uint64
	TrafficFull    uint64
}

// Fig10 is the warm-set and split ablation under 1:8: performance and
// migration traffic for vanilla (no split, no warm set), +split, and
// +split+warm (full MEMTIS). Every run keeps cfg.Seed.
func (r *Runner) Fig10(ctx context.Context, cfg Config) ([]Fig10Row, Table, error) {
	workloads := workloadNames()
	var cells []simCell
	for _, wname := range workloads {
		cells = append(cells, baselineCell(wname),
			runOneCell(wname, Ratio1to8, "memtis-vanilla"),
			runOneCell(wname, Ratio1to8, "memtis-nowarm"),
			runOneCell(wname, Ratio1to8, "memtis"))
	}
	res, err := r.runSims(ctx, cfg, baseSeed, cells)
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 10: impact of warm set and huge page split (1:8)",
		Header: []string{"workload", "perf_vanilla", "perf_split", "perf_full", "traffic_vanilla_mb", "traffic_split_mb", "traffic_full_mb"},
	}
	var out []Fig10Row
	for wi, wname := range workloads {
		base, rv, rs, rf := res[4*wi], res[4*wi+1], res[4*wi+2], res[4*wi+3]
		row := Fig10Row{
			Workload:       wname,
			PerfVanilla:    Norm(rv, base),
			PerfSplit:      Norm(rs, base),
			PerfFull:       Norm(rf, base),
			TrafficVanilla: rv.VM.MigratedBytes,
			TrafficSplit:   rs.VM.MigratedBytes,
			TrafficFull:    rf.VM.MigratedBytes,
		}
		out = append(out, row)
		t.AddRow(wname, row.PerfVanilla, row.PerfSplit, row.PerfFull,
			mb(row.TrafficVanilla), mb(row.TrafficSplit), mb(row.TrafficFull))
	}
	return out, t, nil
}

// Fig11Series is a throughput-over-time trace for the split timeline.
type Fig11Series struct {
	Workload string
	Policy   string
	Points   []sim.SeriesPoint
	RSSFinal uint64
	Splits   uint64
}

// Fig11 records Silo and Btree throughput over time under 1:8 for
// MEMTIS, MEMTIS-NS and the best fault-based baseline: the split kicks
// in mid-run and lifts throughput; for Btree it also cuts RSS. Every
// run keeps cfg.Seed.
func (r *Runner) Fig11(ctx context.Context, cfg Config) ([]Fig11Series, Table, error) {
	cfg.RecordNS = recordPeriod(cfg)
	cfg.Trace = nil // see Config.Trace
	var out []Fig11Series
	for _, wname := range []string{"silo", "btree"} {
		for _, p := range []string{"tiering-0.8", "memtis-ns", "memtis"} {
			out = append(out, Fig11Series{Workload: wname, Policy: p})
		}
	}
	tasks := make([]cellTask, len(out))
	for i := range out {
		s := &out[i]
		tasks[i] = cellTask{label: s.Workload + "/1:8/" + s.Policy, run: func() uint64 {
			w := workload.MustNew(s.Workload)
			pol := NewPolicy(s.Policy)
			res := sim.Run(MachineFor(w.Spec(), Ratio1to8, s.Policy, cfg), pol, w, cfg.Accesses)
			if mp, ok := pol.(*memtis.Policy); ok {
				s.Splits = mp.Splits()
			}
			s.Points, s.RSSFinal = res.Series, res.RSSFinal
			return res.AppNS
		}}
	}
	if err := r.do(ctx, tasks); err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 11: performance over time with and without split (1:8)",
		Header: []string{"workload", "policy", "tail_tput_Maccess_s", "rss_final_mb", "splits"},
	}
	for _, s := range out {
		t.AddRow(s.Workload, s.Policy, tailTput(s.Points)/1e6, mb(s.RSSFinal), s.Splits)
	}
	return out, t, nil
}

// tailTput averages the last-quarter windowed throughput of a series.
func tailTput(pts []sim.SeriesPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	start := len(pts) * 3 / 4
	var s float64
	var n int
	for _, p := range pts[start:] {
		s += p.ThroughputWin
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Fig12Row reports the three hit ratios of §6.3.3 for one workload.
type Fig12Row struct {
	Workload string
	EHR      float64 // estimated base-page hit ratio
	RHR      float64 // measured, with split
	RHRNS    float64 // measured, split disabled
}

// Fig12 compares eHR, rHR and rHR-NS under 1:8. Workloads with skewed,
// low-utilization huge pages (Silo, Btree) show a large eHR-rHRNS gap
// that splitting closes. Each workload's full and split-disabled runs
// are two cells; every run keeps cfg.Seed.
func (r *Runner) Fig12(ctx context.Context, cfg Config) ([]Fig12Row, Table, error) {
	cfg.Trace = nil // see Config.Trace
	workloads := workloadNames()
	out := make([]Fig12Row, len(workloads))
	var tasks []cellTask
	for i, wname := range workloads {
		out[i].Workload = wname
		row := &out[i]
		run := func(split bool) uint64 {
			w := workload.MustNew(wname)
			pol := memtis.New(memtis.Config{SplitDisabled: !split})
			m := sim.NewMachine(MachineFor(w.Spec(), Ratio1to8, "memtis", cfg), pol)
			w.Run(m, cfg.Accesses)
			if split {
				row.RHR = pol.RHR()
			} else {
				row.EHR, row.RHRNS = pol.EHR(), pol.RHR()
			}
			return m.Now()
		}
		tasks = append(tasks,
			cellTask{label: wname + "/1:8/memtis", run: func() uint64 { return run(true) }},
			cellTask{label: wname + "/1:8/memtis-ns", run: func() uint64 { return run(false) }})
	}
	if err := r.do(ctx, tasks); err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 12: fast tier hit ratios (1:8)",
		Header: []string{"workload", "eHR", "rHR", "rHR-NS"},
	}
	for _, row := range out {
		t.AddRow(row.Workload, row.EHR, row.RHR, row.RHRNS)
	}
	return out, t, nil
}

// Fig13 is the sensitivity study: threshold-adaptation and cooling
// intervals swept from 0.1x to 10x their defaults under 2:1, normalised
// to the default setting. Every run keeps cfg.Seed.
func (r *Runner) Fig13(ctx context.Context, cfg Config) (*Matrix, Table, error) {
	muls := []float64{0.1, 0.5, 1, 2, 10}
	workloads := workloadNames()
	var cells []simCell
	for _, wname := range workloads {
		fastUnits := MachineFor(workload.MustNew(wname).Spec(), Ratio2to1, "memtis", cfg).FastBytes / tier.BasePageSize
		defAdapt := max(fastUnits/2, 512)
		defCool := defAdapt * 4
		runWith := func(adapt, cool uint64) func(Config) sim.Result {
			return func(c Config) sim.Result {
				w := workload.MustNew(wname)
				pol := memtis.New(memtis.Config{AdaptEvery: adapt, CoolEvery: cool})
				mc := MachineFor(w.Spec(), Ratio2to1, "memtis", c)
				return sim.Run(mc, pol, c.streams.load(w, mc, c.Accesses), c.Accesses)
			}
		}
		cells = append(cells, simCell{wname, "2:1", "memtis", runWith(defAdapt, defCool)})
		for _, mul := range muls {
			a := max(uint64(float64(defAdapt)*mul), 1)
			c := max(uint64(float64(defCool)*mul), 1)
			cells = append(cells,
				simCell{wname, fmt.Sprintf("adapt-%gx", mul), "memtis", runWith(a, defCool)},
				simCell{wname, fmt.Sprintf("cool-%gx", mul), "memtis", runWith(defAdapt, c)})
		}
	}
	res, err := r.runSims(ctx, cfg, baseSeed, cells)
	if err != nil {
		return nil, Table{}, err
	}
	m := &Matrix{}
	t := Table{
		Title:  "Figure 13: sensitivity to adaptation and cooling intervals (2:1)",
		Header: []string{"workload", "param", "0.1x", "0.5x", "1x", "2x", "10x"},
	}
	per := 1 + 2*len(muls)
	for wi, wname := range workloads {
		ref := res[wi*per].Throughput
		rowA := []interface{}{wname, "adapt"}
		rowC := []interface{}{wname, "cool"}
		for mi := range muls {
			ca, cc := cells[wi*per+1+2*mi], cells[wi*per+2+2*mi]
			va, vc := 0.0, 0.0
			if ref > 0 {
				va = res[wi*per+1+2*mi].Throughput / ref
				vc = res[wi*per+2+2*mi].Throughput / ref
			}
			m.Cells = append(m.Cells,
				Cell{Workload: wname, Ratio: ca.ratio, Policy: "memtis", Value: va},
				Cell{Workload: wname, Ratio: cc.ratio, Policy: "memtis", Value: vc})
			rowA = append(rowA, va)
			rowC = append(rowC, vc)
		}
		t.AddRow(rowA...)
		t.AddRow(rowC...)
	}
	return m, t, nil
}

// Fig14 repeats the comparison with emulated CXL memory (177ns) as the
// capacity tier: MEMTIS vs TPP across the three ratios.
func (r *Runner) Fig14(ctx context.Context, cfg Config) (*Matrix, Table, error) {
	cfg.CapKind = tier.CXL
	workloads := workloadNames()
	pols := []string{"tpp", "memtis"}
	m, err := r.RunMatrix(ctx, cfg, workloads, MainRatios, pols)
	if err != nil {
		return nil, Table{}, err
	}
	t := Table{
		Title:  "Figure 14: MEMTIS vs TPP with CXL capacity tier",
		Header: []string{"workload", "ratio", "tpp", "memtis"},
	}
	for _, wname := range workloads {
		for _, rt := range MainRatios {
			row := []interface{}{wname, rt.Name}
			for _, p := range pols {
				v, _ := m.Get(wname, rt.Name, p)
				row = append(row, v)
			}
			t.AddRow(row...)
		}
	}
	return m, t, nil
}

func workloadNames() []string {
	specs := workload.Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
