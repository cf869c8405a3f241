// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) — one testing.B target per experiment, as indexed in
// DESIGN.md §3. Each benchmark runs the experiment through the harness
// in internal/bench and reports headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The per-run access budget is modest
// (CI-friendly); cmd/paperfigs runs the same experiments with larger
// budgets and writes full CSVs.
package memtis_test

import (
	"context"
	"testing"

	"memtis/internal/bench"
)

func benchCfg() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Accesses = 1_500_000
	return cfg
}

// reportMatrix surfaces the MEMTIS-vs-second-best margins.
func reportMatrix(b *testing.B, m *bench.Matrix, ratios []string) {
	for _, r := range ratios {
		var vals []float64
		var wins, cells int
		seen := map[string]bool{}
		for _, c := range m.Cells {
			if c.Ratio != r || seen[c.Workload] {
				continue
			}
			seen[c.Workload] = true
			best, _, _, _ := m.Best(c.Workload, r)
			cells++
			if best == "memtis" {
				wins++
			}
			if v, ok := m.Get(c.Workload, r, "memtis"); ok {
				vals = append(vals, v)
			}
		}
		if cells > 0 {
			b.ReportMetric(float64(wins)/float64(cells), "memtis_win_rate_"+r)
		}
		if g := bench.Geomean(vals); g > 0 {
			b.ReportMetric(g, "memtis_geomean_"+r)
		}
	}
}

func BenchmarkTable1_Traits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table1()
		if len(t.Rows) != 10 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkFig1_DAMON(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Sequential().Fig1(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[2].CPU, "fine_cpu")
		b.ReportMetric(res[2].Accuracy, "fine_accuracy")
		b.ReportMetric(res[0].CPU, "coarse_cpu")
	}
}

func BenchmarkFig2_HeMemHotset(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		series, _, err := bench.Sequential().Fig2(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			var maxHot uint64
			for _, p := range s.Points {
				if p.HotBytes > maxHot {
					maxHot = p.HotBytes
				}
			}
			b.ReportMetric(float64(maxHot)/float64(s.FastBytes), "hotmax_over_fast_"+s.Workload)
		}
	}
}

func BenchmarkFig3_Utilization(b *testing.B) {
	cfg := benchCfg()
	cfg.Accesses = 2_500_000
	for i := 0; i < b.N; i++ {
		data, t, err := bench.Sequential().Fig3(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) != 2 || len(t.Rows) != 2 {
			b.Fatal("fig3 incomplete")
		}
	}
}

func BenchmarkTable2_Workloads(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		t, err := bench.Sequential().Table2(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 8 {
			b.Fatal("table 2 incomplete")
		}
	}
}

func BenchmarkTable3_OverAlloc(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		over, _, err := bench.Sequential().Table3(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range over {
			if v == 0 {
				b.Fatal("zero over-allocation")
			}
		}
	}
}

func BenchmarkFig5_Main(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		m, _, err := bench.Sequential().Fig5(context.Background(), cfg, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		reportMatrix(b, m, []string{"1:2", "1:8", "1:16"})
	}
}

// The runner pair below measures the harness itself: the same Figure 5
// matrix at 1 worker vs 8. Their outputs are cell-for-cell identical
// by construction (per-cell seed derivation; see the determinism tests
// in internal/bench), so the ns/op ratio is the pure wall-clock
// speedup of the fan-out on this host.
func benchmarkFig5Runner(b *testing.B, workers int) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		m, _, err := bench.Parallel(workers).Fig5(context.Background(), cfg, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		reportMatrix(b, m, []string{"1:2", "1:8", "1:16"})
	}
}

func BenchmarkFig5_RunnerSequential(b *testing.B) { benchmarkFig5Runner(b, 1) }
func BenchmarkFig5_RunnerParallel8(b *testing.B)  { benchmarkFig5Runner(b, 8) }

func BenchmarkFig6_Scalability(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		m, _, err := bench.Sequential().Fig6(context.Background(), cfg, []string{"tpp", "hemem", "memtis"})
		if err != nil {
			b.Fatal(err)
		}
		small, _ := m.Get("graph500", "128GB", "memtis")
		big, _ := m.Get("graph500", "690GB", "memtis")
		b.ReportMetric(small, "memtis_128GB")
		b.ReportMetric(big, "memtis_690GB")
	}
}

func BenchmarkFig7_2to1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		m, _, err := bench.Sequential().Fig7(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		var memtisWins int
		for _, c := range m.Cells {
			if c.Policy != "memtis" {
				continue
			}
			if tppV, ok := m.Get(c.Workload, "2:1", "tpp"); ok && c.Value >= tppV {
				memtisWins++
			}
		}
		b.ReportMetric(float64(memtisWins), "memtis_ge_tpp_count")
	}
}

func BenchmarkFig8_HeMemPlus(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		m, _, err := bench.Sequential().Fig8(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		var wins, cells int
		for _, c := range m.Cells {
			if c.Policy != "memtis" {
				continue
			}
			cells++
			if hp, ok := m.Get(c.Workload, "1:2", "hemem+"); ok && c.Value > hp {
				wins++
			}
		}
		b.ReportMetric(float64(wins)/float64(cells), "memtis_beats_hemem+_rate")
	}
}

func BenchmarkFig9_Hotset(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		series, _, err := bench.Sequential().Fig9(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Workload != "xsbench" || s.Ratio != "1:8" {
				continue
			}
			var sum float64
			var n int
			for j, p := range s.Points {
				if j < len(s.Points)/3 {
					continue
				}
				sum += float64(p.HotBytes) / float64(s.FastBytes)
				n++
			}
			if n > 0 {
				b.ReportMetric(sum/float64(n), "hot_over_fast_xsbench_1to8")
			}
		}
	}
}

func BenchmarkFig10_Ablation(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Sequential().Fig10(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "silo" {
				b.ReportMetric(r.PerfFull/r.PerfVanilla, "silo_full_over_vanilla")
			}
		}
	}
}

func BenchmarkFig11_SplitTimeline(b *testing.B) {
	cfg := benchCfg()
	cfg.Accesses = 2_500_000
	for i := 0; i < b.N; i++ {
		series, _, err := bench.Sequential().Fig11(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Workload == "btree" && s.Policy == "memtis" {
				b.ReportMetric(float64(s.Splits), "btree_splits")
				b.ReportMetric(float64(s.RSSFinal)/(1<<20), "btree_rss_final_mb")
			}
		}
	}
}

func BenchmarkFig12_HitRatios(b *testing.B) {
	cfg := benchCfg()
	cfg.Accesses = 2_500_000
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Sequential().Fig12(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "silo" {
				b.ReportMetric(r.EHR-r.RHRNS, "silo_eHR_minus_rHRNS")
				b.ReportMetric(r.RHR-r.RHRNS, "silo_split_gain")
			}
		}
	}
}

func BenchmarkFig13_Sensitivity(b *testing.B) {
	cfg := benchCfg()
	cfg.Accesses = 800_000 // 8 workloads x 2 params x 5 points x 2 runs
	for i := 0; i < b.N; i++ {
		m, _, err := bench.Sequential().Fig13(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Default-interval cells are 1.0 by construction; report the
		// worst deviation at the extremes.
		worst := 1.0
		for _, c := range m.Cells {
			if c.Value > 0 && c.Value < worst {
				worst = c.Value
			}
		}
		b.ReportMetric(worst, "worst_normalized")
	}
}

func BenchmarkFig14_CXL(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		m, _, err := bench.Sequential().Fig14(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		var wins, cells int
		for _, c := range m.Cells {
			if c.Policy != "memtis" {
				continue
			}
			cells++
			if tppV, ok := m.Get(c.Workload, c.Ratio, "tpp"); ok && c.Value > tppV {
				wins++
			}
		}
		b.ReportMetric(float64(wins)/float64(cells), "memtis_beats_tpp_rate")
	}
}

func BenchmarkOverhead_Sampler(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Sequential().Overhead(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.AvgCPU
		}
		b.ReportMetric(sum/float64(len(rows)), "avg_ksampled_cpu_pct")
	}
}

// Extension benchmarks (beyond the paper's evaluation).

// BenchmarkExtra_MultiClock runs the MULTI-CLOCK baseline (Table 1 row
// the paper does not evaluate) over the Figure 5 silo/btree columns.
func BenchmarkExtra_MultiClock(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		for _, wname := range []string{"silo", "btree"} {
			base := bench.RunBaseline(wname, cfg)
			mc := bench.Norm(bench.RunOne(wname, "multi-clock", bench.Ratio1to8, cfg), base)
			mt := bench.Norm(bench.RunOne(wname, "memtis", bench.Ratio1to8, cfg), base)
			b.ReportMetric(mc, "multiclock_"+wname)
			b.ReportMetric(mt, "memtis_"+wname)
		}
	}
}

// BenchmarkAblation_HybridScan measures §8's proposed hybrid tracking
// (PEBS + accessed-bit scanning) against plain MEMTIS.
func BenchmarkAblation_HybridScan(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		for _, wname := range []string{"pagerank", "xsbench"} {
			base := bench.RunBaseline(wname, cfg)
			plain := bench.Norm(bench.RunOne(wname, "memtis", bench.Ratio1to8, cfg), base)
			hybrid := bench.Norm(bench.RunOne(wname, "memtis-hybrid", bench.Ratio1to8, cfg), base)
			b.ReportMetric(hybrid/plain, "hybrid_over_plain_"+wname)
		}
	}
}
