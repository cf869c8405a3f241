// Command paperfigs regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index) and
// writes both aligned-text and CSV outputs into a results directory.
//
// Every job that simulates fans its runs out to one worker pool as
// cells, each with a seed fixed by -seed alone (DESIGN.md §4
// "Reproducibility & parallelism"): -parallel changes wall-clock time
// only, never a single output byte. Every job shows the progress line
// and, on Ctrl-C, reports how many of its cells finished. An unknown
// -only name exits 2 before anything runs.
//
// Usage:
//
//	paperfigs                 # everything (several minutes)
//	paperfigs -only fig5,fig12
//	paperfigs -accesses 4000000 -out results
//	paperfigs -only fig5 -parallel 8
//	paperfigs -parallel 1     # sequential reference
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"memtis/internal/bench"
	"memtis/internal/render"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tier"
)

func main() {
	var (
		out      = flag.String("out", "results", "output directory")
		only     = flag.String("only", "", "comma-separated subset (fig1,fig2,fig3,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,fig13,fig14,table1,table2,table3,overhead,tenantsweep,faultsweep,depthsweep)")
		accesses = flag.Uint64("accesses", 2_000_000, "access budget per run")
		seed     = flag.Int64("seed", 42, "RNG seed")
		parallel = flag.Int("parallel", 0, "worker pool size for every job that simulates (0 = GOMAXPROCS, 1 = sequential)")
		quiet    = flag.Bool("quiet", false, "suppress the per-cell progress line")
		scens    = flag.String("scenarios", "", "comma-separated scenario spec files: adds a \"scenarios\" job running each through the Figure 5 policy/ratio matrix (additive; paper figures are unaffected)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Accesses = *accesses
	cfg.Seed = *seed

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := bench.Parallel(*parallel)
	if !*quiet {
		runner.Progress = progressLine
	}

	type job struct {
		name string
		run  func() (bench.Table, error)
	}
	jobs := []job{
		{"table1", func() (bench.Table, error) { return bench.Table1(), nil }},
		{"fig1", func() (bench.Table, error) { return tableOf(runner.Fig1(ctx, cfg)) }},
		{"fig2", func() (bench.Table, error) {
			series, t, err := runner.Fig2(ctx, cfg)
			for _, s := range series {
				writeSeries(*out, fmt.Sprintf("fig2_%s.csv", s.Workload), s.Points, s.FastBytes)
			}
			return t, err
		}},
		{"fig3", func() (bench.Table, error) {
			data, t, err := runner.Fig3(ctx, cfg)
			for wname, samples := range data {
				var b strings.Builder
				b.WriteString("access_count,utilization\n")
				for _, s := range samples {
					fmt.Fprintf(&b, "%d,%d\n", s.AccessCount, s.Utilization)
				}
				mustWrite(filepath.Join(*out, fmt.Sprintf("fig3_%s.csv", wname)), b.String())
			}
			return t, err
		}},
		{"table2", func() (bench.Table, error) { return runner.Table2(ctx, cfg) }},
		{"table3", func() (bench.Table, error) { return tableOf(runner.Table3(ctx, cfg)) }},
		{"fig5", func() (bench.Table, error) {
			m, t, err := runner.Fig5(ctx, cfg, nil, nil, nil)
			if err != nil {
				return bench.Table{}, err
			}
			mustWrite(filepath.Join(*out, "fig5.plot.txt"), fig5Plot(m))
			writeCounters(*out, "fig5", m)
			return t, nil
		}},
		{"fig6", func() (bench.Table, error) {
			m, t, err := runner.Fig6(ctx, cfg, nil)
			if err == nil {
				writeCounters(*out, "fig6", m)
			}
			return t, err
		}},
		{"fig7", func() (bench.Table, error) {
			m, t, err := runner.Fig7(ctx, cfg)
			if err == nil {
				writeCounters(*out, "fig7", m)
			}
			return t, err
		}},
		{"fig8", func() (bench.Table, error) {
			m, t, err := runner.Fig8(ctx, cfg)
			if err == nil {
				writeCounters(*out, "fig8", m)
			}
			return t, err
		}},
		{"fig9", func() (bench.Table, error) {
			series, t, err := runner.Fig9(ctx, cfg)
			if err != nil {
				return bench.Table{}, err
			}
			var plots strings.Builder
			for _, s := range series {
				name := fmt.Sprintf("fig9_%s_%s.csv", s.Workload, strings.ReplaceAll(s.Ratio, ":", "to"))
				writeSeries(*out, name, s.Points, s.FastBytes)
				plots.WriteString(hotSetPlot(fmt.Sprintf("%s %s: identified hot set vs fast tier (MB)", s.Workload, s.Ratio), s.Points, s.FastBytes))
				plots.WriteByte('\n')
			}
			mustWrite(filepath.Join(*out, "fig9.plot.txt"), plots.String())
			return t, nil
		}},
		{"fig10", func() (bench.Table, error) { return tableOf(runner.Fig10(ctx, cfg)) }},
		{"fig11", func() (bench.Table, error) {
			series, t, err := runner.Fig11(ctx, cfg)
			if err != nil {
				return bench.Table{}, err
			}
			var plots strings.Builder
			byWorkload := map[string][]render.Series{}
			var order []string
			for _, s := range series {
				name := fmt.Sprintf("fig11_%s_%s.csv", s.Workload, s.Policy)
				writeSeries(*out, name, s.Points, 0)
				var xs, ys []float64
				for _, p := range s.Points {
					xs = append(xs, float64(p.TimeNS)/1e6)
					ys = append(ys, p.ThroughputWin/1e6)
				}
				if _, ok := byWorkload[s.Workload]; !ok {
					order = append(order, s.Workload)
				}
				byWorkload[s.Workload] = append(byWorkload[s.Workload], render.Series{Name: s.Policy, X: xs, Y: ys})
			}
			for _, w := range order {
				plots.WriteString(render.LineChart(
					fmt.Sprintf("%s (1:8): throughput over time (M accesses/s vs ms)", w),
					byWorkload[w], 72, 14))
				plots.WriteByte('\n')
			}
			mustWrite(filepath.Join(*out, "fig11.plot.txt"), plots.String())
			return t, nil
		}},
		{"fig12", func() (bench.Table, error) { return tableOf(runner.Fig12(ctx, cfg)) }},
		{"fig13", func() (bench.Table, error) { return tableOf(runner.Fig13(ctx, cfg)) }},
		{"fig14", func() (bench.Table, error) {
			m, t, err := runner.Fig14(ctx, cfg)
			if err == nil {
				writeCounters(*out, "fig14", m)
			}
			return t, err
		}},
		{"overhead", func() (bench.Table, error) { return tableOf(runner.Overhead(ctx, cfg)) }},
		{"scenarios", func() (bench.Table, error) {
			// Additive: declarative scenario specs (-scenarios) through
			// the Figure 5 policy/ratio matrix. Never selected unless the
			// flag names at least one spec file, so the paper figures are
			// byte-identical with or without it.
			var (
				scs   []*scenario.Runner
				names []string
			)
			for _, f := range strings.Split(*scens, ",") {
				if f = strings.TrimSpace(f); f == "" {
					continue
				}
				spec, err := scenario.DecodeFile(f)
				if err != nil {
					return bench.Table{}, err
				}
				sc, err := scenario.Compile(spec, scenario.Options{Dir: filepath.Dir(f)})
				if err != nil {
					return bench.Table{}, err
				}
				scs = append(scs, sc)
				names = append(names, sc.Name())
			}
			m, err := runner.RunScenarioMatrix(ctx, cfg, scs, bench.MainRatios, bench.Policies)
			if err != nil {
				return bench.Table{}, err
			}
			writeCounters(*out, "scenarios", m)
			title := fmt.Sprintf("scenarios: normalized performance (vs all-%s, seed %d, %d accesses/cell)",
				cfg.CapKind, cfg.Seed, cfg.Accesses)
			return bench.MatrixTable(title, m, names, bench.MainRatios, bench.Policies), nil
		}},
		{"tenantsweep", func() (bench.Table, error) {
			// The tenant-count x skew x churn fairness matrix
			// (EXPERIMENTS.md "Tenant sweep"): every cell normalised to
			// the same policy's single-tenant run, so the sweep isolates
			// the cost of multi-tenant contention and QoS arbitration.
			m, err := runner.TenantSweep(ctx, cfg, bench.Ratio1to8, nil, nil)
			if err != nil {
				return bench.Table{}, err
			}
			writeCounters(*out, "tenantsweep", m)
			title := fmt.Sprintf("tenant sweep: 1:8 throughput vs tenant count/skew/churn (normalised to each policy's single-tenant run, seed %d)", cfg.Seed)
			return bench.TenantSweepTable(title, m, bench.Ratio1to8, nil, nil), nil
		}},
		{"depthsweep", func() (bench.Table, error) {
			// The tier-depth x admission x fault-rate matrix
			// (EXPERIMENTS.md "Depth sweep"): every cell runs on the
			// hierarchy bench.TopologyForDepth derives for its depth with
			// the background mover on, normalised to the same policy's
			// (first depth, first admission, fault-free) reference cell.
			dcfg := cfg
			dcfg.Mover = tier.MoverConfig{BytesPerWindow: 8 << 20}
			m, err := runner.DepthSweep(ctx, dcfg, "silo", bench.Ratio1to8, nil, nil, nil, nil)
			if err != nil {
				return bench.Table{}, err
			}
			writeCounters(*out, "depthsweep", m)
			title := fmt.Sprintf("depth sweep: silo 1:8 throughput vs hierarchy depth/admission/fault rate (normalised to each policy's depth-2 always-admit fault-free run, seed %d)", cfg.Seed)
			return bench.DepthSweepTable(title, m, "silo", bench.Ratio1to8, nil, nil, nil, nil), nil
		}},
		{"faultsweep", func() (bench.Table, error) {
			// The fault-rate x policy degradation matrix (EXPERIMENTS.md
			// "Fault sweep"): every cell normalised to the same policy's
			// fault-free run, so the sweep isolates fault sensitivity.
			m, err := runner.FaultSweep(ctx, cfg, "silo", bench.Ratio1to8, nil, nil)
			if err != nil {
				return bench.Table{}, err
			}
			writeCounters(*out, "faultsweep", m)
			title := fmt.Sprintf("fault sweep: silo 1:8 throughput vs copy-abort rate (normalised to each policy's fault-free run, seed %d)", cfg.Seed)
			return bench.FaultSweepTable(title, m, "silo", bench.Ratio1to8, nil, nil), nil
		}},
	}

	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.name
	}
	want, err := parseOnly(*only, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(2)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	var summary strings.Builder
	for _, j := range jobs {
		if want != nil && !want[j.name] {
			continue
		}
		if j.name == "scenarios" && *scens == "" {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		t, err := j.run()
		if errors.Is(err, context.Canceled) {
			var ce *bench.Cancelled
			if errors.As(err, &ce) {
				fmt.Fprintf(os.Stderr, "\n%s interrupted after %d/%d cells\n", j.name, ce.Done, ce.Total)
			} else {
				fmt.Fprintf(os.Stderr, "\n%s interrupted\n", j.name)
			}
			break
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-9s done in %v\n", j.name, time.Since(start).Round(time.Millisecond))
		mustWrite(filepath.Join(*out, j.name+".txt"), t.String())
		mustWrite(filepath.Join(*out, j.name+".csv"), t.CSV())
		summary.WriteString(t.String())
		summary.WriteByte('\n')
	}
	mustWrite(filepath.Join(*out, "summary.txt"), summary.String())
	fmt.Printf("results written to %s/\n", *out)
	if ctx.Err() != nil {
		os.Exit(130) // interrupted: partial results on disk
	}
}

// tableOf keeps a figure's table and error, dropping its data.
func tableOf[T any](_ T, t bench.Table, err error) (bench.Table, error) { return t, err }

// parseOnly turns the -only flag into the set of jobs to run: nil, for
// an empty flag, selects every job. Each comma-separated name must be
// one of names; an unknown name, or a list naming no job at all, is an
// error that lists the known jobs.
func parseOnly(only string, names []string) (map[string]bool, error) {
	if only == "" {
		return nil, nil
	}
	known := make(map[string]bool, len(names))
	for _, n := range names {
		known[n] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, f := range strings.Split(only, ",") {
		switch f = strings.TrimSpace(f); {
		case f == "":
		case known[f]:
			want[f] = true
		default:
			unknown = append(unknown, f)
		}
	}
	if len(unknown) > 0 || len(want) == 0 {
		return nil, fmt.Errorf("-only %q: unknown job(s) %q; known jobs: %s",
			only, unknown, strings.Join(names, ","))
	}
	return want, nil
}

// progressLine redraws one stderr status line per finished cell:
// cells done / total plus the cumulative virtual time simulated.
func progressLine(p bench.Progress) {
	fmt.Fprintf(os.Stderr, "\r\033[K  %d/%d cells  %.2fs virtual  %s", p.Done, p.Total, float64(p.VirtualNS)/1e9, p.Cell)
	if p.Done == p.Total {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
}

// fig5Plot renders the headline comparison as grouped text bars.
func fig5Plot(m *bench.Matrix) string {
	var groups []render.BarGroup
	seen := map[string]bool{}
	for _, c := range m.Cells {
		key := c.Workload + " " + c.Ratio
		if seen[key] {
			continue
		}
		seen[key] = true
		g := render.BarGroup{Label: key}
		for _, p := range bench.Policies {
			if v, ok := m.Get(c.Workload, c.Ratio, p); ok {
				g.Bars = append(g.Bars, render.Bar{Name: p, Value: v})
			}
		}
		groups = append(groups, g)
	}
	return render.BarChart("Figure 5: normalized performance (vs all-NVM)", groups, 56)
}

// hotSetPlot draws the identified hot set against the fast-tier line.
func hotSetPlot(title string, pts []sim.SeriesPoint, fastBytes uint64) string {
	var xs, hot, fast []float64
	for _, p := range pts {
		xs = append(xs, float64(p.TimeNS)/1e6)
		hot = append(hot, float64(p.HotBytes)/(1<<20))
		fast = append(fast, float64(fastBytes)/(1<<20))
	}
	return render.LineChart(title, []render.Series{
		{Name: "hot", X: xs, Y: hot},
		{Name: "fast tier", X: xs, Y: fast},
	}, 72, 12)
}

func writeSeries(dir, name string, pts []sim.SeriesPoint, fastBytes uint64) {
	var b strings.Builder
	b.WriteString("time_ms,hot_mb,warm_mb,cold_mb,rss_mb,fast_used_mb,fast_hit,tput_Maccess_s,fast_size_mb\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.4f,%.3f,%.2f\n",
			float64(p.TimeNS)/1e6,
			float64(p.HotBytes)/(1<<20), float64(p.WarmBytes)/(1<<20), float64(p.ColdBytes)/(1<<20),
			float64(p.RSSBytes)/(1<<20), float64(p.FastUsed)/(1<<20),
			p.FastHitWin, p.ThroughputWin/1e6, float64(fastBytes)/(1<<20))
	}
	mustWrite(filepath.Join(dir, name), b.String())
}

// writeCounters dumps every cell's policy counter snapshot next to the
// figure output (additive observability: never an input to the figure).
func writeCounters(dir, fig string, m *bench.Matrix) {
	mustWrite(filepath.Join(dir, fig+".counters.csv"), m.CountersCSV())
}

func mustWrite(path, content string) {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
