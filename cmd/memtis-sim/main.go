// Command memtis-sim runs one benchmark under one tiering policy on the
// simulated tiered machine — the classic fast/capacity pair by default;
// -topology or -depth select a deeper chain, -admission installs a
// migration admission gate and -mover a rate-limited background mover
// (DESIGN.md §11) — and prints the run's metrics. Passing
// comma-separated lists (or "all") for -workload, -policy or -ratio
// switches to matrix mode: every combination fans out to the parallel
// experiment runner with deterministic per-cell seeds and the
// normalized result table is printed.
//
// Declarative scenarios (-scenario) replace the workload flag with a
// spec file compiled by internal/scenario: phases, RSS churn, trace
// replay and a fault plan all come from the file, and comma-separated
// spec lists fan out to the same matrix runner. -gen-scenario prints
// the seed's fuzzer-generated spec for inspection or editing.
//
// Usage:
//
//	memtis-sim -workload silo -policy memtis -ratio 1:8 -accesses 2000000
//	memtis-sim -workload silo -policy memtis -trace-events silo.events.jsonl
//	memtis-sim -workload silo -policy memtis -faults rate=0.01,throttle=200us/1ms:4x
//	memtis-sim -workload silo -policy memtis -depth 4 -admission benefit -mover 8m/1ms
//	memtis-sim -workload silo -policy memtis -topology "dram:256m>cxl:1g>nvm:4g"
//	memtis-sim -workload silo -policy memtis -topology examples/topologies/cxl-interposed.topology
//	memtis-sim -workload silo,btree -policy tpp,memtis -ratio 1:2,1:8 -parallel 8
//	memtis-sim -workload all -policy memtis,hemem -ratio 1:8 -trace-events traces/
//	memtis-sim -scenario examples/scenarios/churn.json -policy memtis -baseline
//	memtis-sim -scenario a.json,b.json -policy memtis,hemem -parallel 8
//	memtis-sim -gen-scenario 134 > repro.json
//	memtis-sim -workload silo -policy memtis -tenants 4 -tenant-skew 8to1
//	memtis-sim -workload btree -tenants 8 -tenant-churn 0.5 -tenant-floor 8388608
//	memtis-sim -scenario examples/scenarios/tenants.json -policy memtis
//	memtis-sim -workload silo -policy memtis -shards 8
//	memtis-sim -workload silo -policy memtis -tenants 8 -shards 4
//	memtis-sim -list
//
// Multi-tenancy (-tenants N, or a spec file with a "tenants" section)
// runs N contending address spaces under one policy daemon with
// fairness/QoS arbitration (weights, fast-tier floors, churn); the
// result gains a per-tenant accounting table. See DESIGN.md §10.
//
// Sharded parallel simulation (-shards S) runs S worker goroutines,
// each owning a slice of the machine. Alone it splits one address
// space by 2MB block and drives a synthetic Zipf stream over the
// named workload's footprint; combined with -tenants it routes whole
// tenants — each a synthetic 80/20 stream over the workload's
// footprint, since the benchmark models cannot be replayed lane-side —
// across the shards, each shard arbitrating its local fast tier, and
// the per-shard table precedes the merged per-tenant rows.
// Both modes are byte-identical to their sequential reference. See
// DESIGN.md §12-§13.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"memtis/internal/bench"
	"memtis/internal/obs"
	"memtis/internal/scenario"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

func main() {
	var (
		wname    = flag.String("workload", "silo", "benchmark name, comma-separated list, or \"all\" (see -list)")
		pname    = flag.String("policy", "memtis", "tiering policy or comma-separated list (see -list)")
		ratio    = flag.String("ratio", "1:8", "fast:capacity ratio or comma-separated list (1:2, 1:8, 1:16, 2:1)")
		accesses = flag.Uint64("accesses", 2_000_000, "access budget")
		seed     = flag.Int64("seed", 42, "RNG seed")
		capKind  = flag.String("cap", "nvm", "capacity tier kind: nvm or cxl")
		threads  = flag.Int("threads", 0, "application threads (0 = all cores)")
		parallel = flag.Int("parallel", 0, "matrix-mode worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		list     = flag.Bool("list", false, "list workloads and policies, then exit")
		baseline = flag.Bool("baseline", false, "also run the all-capacity baseline and report normalized performance")
		series   = flag.String("series", "", "write a time-series CSV (hot/warm/cold, RSS, hit ratio) to this path")
		traceOut = flag.String("trace-events", "", "write a JSONL event trace to this path (matrix mode: a directory, one trace per cell)")
		faults   = flag.String("faults", "", "fault-injection spec, e.g. \"rate=0.01,retries=3,throttle=200us/1ms:4x\" (empty = disabled; see tier.ParseFaultSpec)")
		topoSpec = flag.String("topology", "", "explicit tier chain: a topology spec like \"dram:256m>cxl:1g>nvm:4g\" or a file holding one (see examples/topologies/); replaces the ratio-derived two-tier machine")
		depth    = flag.Int("depth", 0, "derive an N-deep hierarchy (2-4) from the workload's RSS and -ratio (single-workload runs only; conflicts with -topology)")
		admitPol = flag.String("admission", "", "migration admission policy: always, throttle or benefit[:PCT] (empty = per-policy defaults)")
		mover    = flag.String("mover", "", "background-mover budget as BYTES/WINDOW[:qN], e.g. 8m/1ms:q1024 (empty = inline migration)")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		scenFile = flag.String("scenario", "", "scenario spec file (or comma-separated list: matrix mode); replaces -workload")
		scenGen  = flag.String("gen-scenario", "", "print the scenario the fuzzer derives from this seed (decimal or 0x hex) and exit")
		tenants  = flag.Int("tenants", 1, "run N contending tenants, each an instance of -workload in its own address space (single-run mode only)")
		tSkew    = flag.String("tenant-skew", "flat", "tenant promotion-weight skew: flat, or 8to1 (tenant 0 gets 8x weight)")
		tChurn   = flag.Float64("tenant-churn", 0, "fraction of tenants after the first that spawn at 10% and exit at 70% of the run")
		tFloor   = flag.Uint64("tenant-floor", 0, "guaranteed fast-tier bytes for tenant 0 (QoS floor)")
		shards   = flag.Int("shards", 1, "split the machine across N sharded worker goroutines: alone, a synthetic zipf stream VPN-sharded over -workload's footprint; with -tenants, whole tenants routed across the shards (single-run mode only)")
	)
	flag.Parse()

	if *pprofAt != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				fmt.Fprintln(os.Stderr, "memtis-sim: pprof:", err)
			}
		}()
	}

	if *list {
		fmt.Println("workloads:")
		for _, s := range workload.Specs() {
			fmt.Printf("  %-12s %6.1f paper-GB  %s\n", s.Name, s.PaperRSSGB, s.Description)
		}
		fmt.Println("policies:")
		for _, p := range append(append([]string{}, bench.Policies...), "memtis-ns", "memtis-vanilla", "static", "all-fast", "all-capacity") {
			fmt.Printf("  %s\n", p)
		}
		return
	}

	if *scenGen != "" {
		genScenario(*scenGen)
		return
	}

	cfg := bench.DefaultConfig()
	cfg.Accesses = *accesses
	cfg.Seed = *seed
	cfg.Threads = *threads
	switch *capKind {
	case "nvm":
		cfg.CapKind = tier.NVM
	case "cxl":
		cfg.CapKind = tier.CXL
	default:
		fmt.Fprintf(os.Stderr, "unknown capacity kind %q\n", *capKind)
		os.Exit(2)
	}
	if *faults != "" {
		fc, err := tier.ParseFaultSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memtis-sim: -faults:", err)
			os.Exit(2)
		}
		cfg.Faults = fc
	}
	if *topoSpec != "" && *depth != 0 {
		fmt.Fprintln(os.Stderr, "-topology and -depth conflict: the spec already fixes the hierarchy")
		os.Exit(2)
	}
	if *topoSpec != "" {
		topo, err := loadTopology(*topoSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memtis-sim: -topology:", err)
			os.Exit(2)
		}
		cfg.Topology = topo
	}
	if *admitPol != "" {
		adm, err := tier.ParseAdmission(*admitPol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memtis-sim: -admission:", err)
			os.Exit(2)
		}
		cfg.Admission = adm
	}
	if *mover != "" {
		mc, err := tier.ParseMoverSpec(*mover)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memtis-sim: -mover:", err)
			os.Exit(2)
		}
		cfg.Mover = mc
	}

	if *tenants < 1 {
		fmt.Fprintf(os.Stderr, "-tenants %d: need at least 1\n", *tenants)
		os.Exit(2)
	}

	if *scenFile != "" {
		if *depth != 0 {
			fmt.Fprintln(os.Stderr, "-depth needs a single -workload run to derive tier sizes from; use -topology with -scenario")
			os.Exit(2)
		}
		if *tenants > 1 {
			fmt.Fprintln(os.Stderr, "-tenants conflicts with -scenario; declare tenants in the spec's \"tenants\" section")
			os.Exit(2)
		}
		if strings.Contains(*scenFile, ",") ||
			strings.Contains(*pname, ",") || strings.Contains(*ratio, ",") {
			cfg.EventDir = *traceOut
			runScenarioMatrix(cfg, *scenFile, *pname, *ratio, *parallel)
			return
		}
		runScenarioSingle(cfg, *scenFile, *pname, *ratio, *series, *traceOut, *baseline)
		return
	}

	if strings.Contains(*wname, ",") || *wname == "all" ||
		strings.Contains(*pname, ",") || strings.Contains(*ratio, ",") {
		if *depth != 0 {
			fmt.Fprintln(os.Stderr, "-depth needs a single -workload run to derive tier sizes from; use -topology in matrix mode")
			os.Exit(2)
		}
		if *tenants > 1 {
			fmt.Fprintln(os.Stderr, "-tenants is a single-run flag; use one workload, policy and ratio")
			os.Exit(2)
		}
		cfg.EventDir = *traceOut
		runMatrix(cfg, *wname, *pname, *ratio, *parallel)
		return
	}

	if *tenants > 1 {
		if *depth != 0 {
			fmt.Fprintln(os.Stderr, "-depth needs a single-tenant -workload run to derive tier sizes from; use -topology with -tenants")
			os.Exit(2)
		}
		if *shards > 1 {
			switch {
			case cfg.Topology != nil:
				fmt.Fprintln(os.Stderr, "-shards supports the two-tier machine only; drop -topology")
				os.Exit(2)
			case *traceOut != "" || *series != "":
				fmt.Fprintln(os.Stderr, "-shards has no trace/series output yet: each shard has a private clock")
				os.Exit(2)
			}
		}
		runTenantsMode(cfg, *wname, *pname, *ratio, *tenants, *tSkew, *tChurn, *tFloor, *traceOut, *baseline, *shards)
		return
	}

	r := parseRatio(*ratio)

	if *shards > 1 {
		switch {
		case *depth != 0 || cfg.Topology != nil:
			fmt.Fprintln(os.Stderr, "-shards supports the two-tier machine only; drop -depth/-topology")
			os.Exit(2)
		case *traceOut != "" || *series != "":
			fmt.Fprintln(os.Stderr, "-shards has no trace/series output yet: each shard has a private clock")
			os.Exit(2)
		case *baseline:
			fmt.Fprintln(os.Stderr, "-baseline compares real workload runs; the sharded stream is synthetic — drop one of the flags")
			os.Exit(2)
		}
		runShardedMode(cfg, *wname, *pname, r, *shards)
		return
	}

	// Validate names up front: a typo is a usage error, not a panic.
	knownW := false
	for _, s := range workload.Specs() {
		knownW = knownW || s.Name == *wname
	}
	if !knownW {
		fmt.Fprintf(os.Stderr, "unknown workload %q (see -list)\n", *wname)
		os.Exit(2)
	}
	if !bench.KnownPolicy(*pname) {
		fmt.Fprintf(os.Stderr, "unknown policy %q (see -list)\n", *pname)
		os.Exit(2)
	}

	if *depth != 0 {
		topo, err := bench.TopologyForDepth(workload.MustNew(*wname).Spec().RSSBytes(), r, *depth, cfg.CapKind)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memtis-sim: -depth:", err)
			os.Exit(2)
		}
		cfg.Topology = topo
	}

	if *series != "" {
		cfg.RecordNS = 300_000
	}
	flushTrace := setupTrace(&cfg, *traceOut)
	res := bench.RunOne(*wname, *pname, r, cfg)
	// The trace file holds exactly this run; the optional baseline run
	// below must not append to it.
	cfg.Trace = nil
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "memtis-sim:", err)
		os.Exit(1)
	}
	if *series != "" {
		if err := writeSeriesCSV(*series, res); err != nil {
			fmt.Fprintln(os.Stderr, "memtis-sim:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("workload        %s\n", res.Workload)
	printResult(res, r.Name, cfg, cfg.Faults.Enabled())

	if *baseline {
		b := bench.RunBaseline(*wname, cfg)
		fmt.Printf("normalized perf %.3f (vs all-%s)\n", bench.Norm(res, b), cfg.CapKind)
	}
}

// runTenantsMode is the -tenants N path: N instances of the named
// workload contend in separate address spaces under one policy, with
// the weight skew, churn plan and tenant-0 floor from the flags. The
// per-tenant accounting table follows the usual metrics block. With
// shards > 1 whole tenants route across an S-shard machine
// (DESIGN.md §13) and a per-shard table precedes the tenant rows.
func runTenantsMode(cfg bench.Config, wname, pname, ratio string, n int, skew string, churn float64, floor uint64, traceOut string, baseline bool, shards int) {
	if !bench.KnownPolicy(pname) {
		fmt.Fprintf(os.Stderr, "unknown policy %q (see -list)\n", pname)
		os.Exit(2)
	}
	if skew != "flat" && skew != "8to1" {
		fmt.Fprintf(os.Stderr, "unknown tenant skew %q (flat or 8to1)\n", skew)
		os.Exit(2)
	}
	r := parseRatio(ratio)
	w, err := workload.New(wname)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q (see -list)\n", wname)
		os.Exit(2)
	}
	per := w.Spec().RSSBytes()
	specs := make([]tenant.Spec, n)
	nChurn := int(churn * float64(n))
	for i := range specs {
		name := fmt.Sprintf("t%02d", i)
		specs[i] = tenant.Spec{
			Name:     name,
			Weight:   1,
			Workload: workload.MustNew(wname),
		}
		if skew == "8to1" && i == 0 {
			specs[i].Weight = 8
		}
		if i >= 1 && i <= nChurn {
			specs[i].SpawnFrac = 0.1
			specs[i].ExitFrac = 0.7
		}
	}
	specs[0].FloorBytes = floor
	tn, err := tenant.New(tenant.Config{Tenants: specs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "memtis-sim: -tenants:", err)
		os.Exit(2)
	}
	rss := per * uint64(n)
	if shards > 1 {
		sr, err := bench.RunTenantsSharded(tn, rss, pname, r, cfg, shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memtis-sim: -tenants -shards:", err)
			os.Exit(2)
		}
		fmt.Printf("workload        %s x %d tenants (skew %s, churn %.0f%%, %d shards)\n",
			wname, n, skew, churn*100, shards)
		printResult(sr.Aggregate, r.Name, cfg, cfg.Faults.Enabled())
		printShards(sr.Shards)
		printTenants(sr.Aggregate)
		if baseline {
			b, err := bench.RunTenantsSharded(tn, rss, "all-capacity", r, cfg, shards)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memtis-sim: -baseline:", err)
				os.Exit(1)
			}
			fmt.Printf("normalized perf %.3f (vs all-%s)\n",
				bench.Norm(sr.Aggregate, b.Aggregate), cfg.CapKind)
		}
		return
	}
	flushTrace := setupTrace(&cfg, traceOut)
	res := bench.RunTenants(tn, rss, pname, r, cfg)
	cfg.Trace = nil
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "memtis-sim:", err)
		os.Exit(1)
	}
	fmt.Printf("workload        %s x %d tenants (skew %s, churn %.0f%%)\n", wname, n, skew, churn*100)
	printResult(res, r.Name, cfg, cfg.Faults.Enabled())
	printTenants(res)
	if baseline {
		b := bench.RunTenants(tn, rss, "all-capacity", r, cfg)
		fmt.Printf("normalized perf %.3f (vs all-%s)\n", bench.Norm(res, b), cfg.CapKind)
	}
}

// runShardedMode is the -shards S path: the named workload's footprint
// drives a synthetic Zipf stream over an S-shard machine (DESIGN.md
// §12); the aggregate result block is followed by a per-shard table.
func runShardedMode(cfg bench.Config, wname, pname string, r bench.Ratio, shards int) {
	if !bench.KnownPolicy(pname) {
		fmt.Fprintf(os.Stderr, "unknown policy %q (see -list)\n", pname)
		os.Exit(2)
	}
	w, err := workload.New(wname)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q (see -list)\n", wname)
		os.Exit(2)
	}
	sr := bench.RunSharded(pname, shards, w.Spec().RSSBytes(), r, cfg)
	fmt.Printf("workload        %s (synthetic zipf over %s footprint, %d shards)\n",
		sr.Aggregate.Workload, wname, shards)
	printResult(sr.Aggregate, r.Name, cfg, cfg.Faults.Enabled())
	printShards(sr.Shards)
}

// printShards prints the per-shard breakdown of a sharded run.
func printShards(shards []sim.Result) {
	fmt.Printf("per-shard       %-6s %12s %10s %10s %10s %12s\n",
		"shard", "accesses", "fast-hit", "promo", "demo", "virtual ms")
	for i, res := range shards {
		fmt.Printf("                s%-5d %12d %9.2f%% %10d %10d %12.3f\n",
			i, res.Accesses, res.FastHitRatio*100, res.VM.Promotions, res.VM.Demotions,
			float64(res.AppNS)/1e6)
	}
}

// printTenants prints the per-tenant accounting rows of a multi-tenant
// result (no-op for single-space runs, whose Tenants slice is nil).
func printTenants(res sim.Result) {
	if len(res.Tenants) == 0 {
		return
	}
	fmt.Printf("per-tenant      %-12s %12s %12s %10s\n", "name", "accesses", "resident MB", "fast MB")
	for _, tr := range res.Tenants {
		fmt.Printf("                %-12s %12d %12.1f %10.1f\n",
			tr.Name, tr.Accesses, mb(tr.ResidentBytes), mb(tr.FastBytes))
	}
}

// loadTopology resolves the -topology flag: the value is either an
// inline topology spec or the path of a file holding one (blank lines
// and #-comment lines ignored, remaining lines joined — the format of
// examples/topologies/).
func loadTopology(arg string) (*tier.Topology, error) {
	spec := arg
	if data, err := os.ReadFile(arg); err == nil {
		var lines []string
		for _, ln := range strings.Split(string(data), "\n") {
			ln = strings.TrimSpace(ln)
			if ln != "" && !strings.HasPrefix(ln, "#") {
				lines = append(lines, ln)
			}
		}
		spec = strings.Join(lines, "")
	}
	return tier.ParseTopologySpec(spec)
}

// setupTrace attaches a JSONL event tracer to cfg when path is
// non-empty and returns the flush-and-close function (a no-op when no
// trace was requested). Exits on file errors.
func setupTrace(cfg *bench.Config, path string) func() error {
	if path == "" {
		return func() error { return nil }
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memtis-sim:", err)
		os.Exit(1)
	}
	sink := obs.NewJSONL(f)
	cfg.Trace = obs.NewTracer(sink)
	return func() error {
		if err := sink.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// printResult prints the shared single-run metrics block (everything
// after the workload/scenario header line).
func printResult(res sim.Result, ratioName string, cfg bench.Config, faultsOn bool) {
	fmt.Printf("policy          %s\n", res.Policy)
	fmt.Printf("ratio           %s (%s capacity tier)\n", ratioName, cfg.CapKind)
	if cfg.Topology != nil {
		fmt.Printf("hierarchy       %d tiers: %s\n", cfg.Topology.Depth(), cfg.Topology)
	}
	if cfg.Admission != nil {
		fmt.Printf("admission       %s\n", cfg.Admission.Name())
	}
	if cfg.Mover.Enabled() {
		fmt.Printf("mover           %s\n", cfg.Mover)
	}
	fmt.Printf("accesses        %d\n", res.Accesses)
	fmt.Printf("virtual time    %.3f ms (wall %.3f ms with daemon contention)\n",
		float64(res.AppNS)/1e6, float64(res.WallNS)/1e6)
	fmt.Printf("throughput      %.2f M accesses/s\n", res.Throughput/1e6)
	fmt.Printf("fast hit ratio  %.2f%%\n", res.FastHitRatio*100)
	fmt.Printf("daemon CPU      %.2f cores\n", res.DaemonUtil)
	fmt.Printf("TLB miss ratio  %.3f%%\n", res.TLB.MissRatio()*100)
	fmt.Printf("RSS peak/final  %.1f / %.1f MB\n", mb(res.RSSPeak), mb(res.RSSFinal))
	fmt.Printf("migrations      %d base, %d huge (%.1f MB), %d promo / %d demo pages\n",
		res.VM.Migrations4K, res.VM.MigrationsHuge, mb(res.VM.MigratedBytes),
		res.VM.Promotions, res.VM.Demotions)
	fmt.Printf("splits          %d (reclaimed %.1f MB), collapses %d\n",
		res.VM.Splits, mb(res.VM.ReclaimedFrames*tier.BasePageSize), res.VM.Collapses)
	if faultsOn {
		fmt.Printf("fault aborts    %d (%.3f ms wasted copy)\n",
			res.VM.MigrateAborts, float64(res.VM.AbortNS)/1e6)
	}
}

// genScenario is the -gen-scenario mode: print the scenario the
// conformance hunt derives from the seed, annotated with the (policy,
// ratio) the hunt would pair it with, and exit.
func genScenario(arg string) {
	seed, err := strconv.ParseUint(arg, 0, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memtis-sim: -gen-scenario: %v\n", err)
		os.Exit(2)
	}
	spec := scenario.Generate(seed)
	pol, rt := bench.HuntParams(seed)
	spec.Note = fmt.Sprintf(
		"generated from hunt seed %#x; the conformance fuzzer pairs it with policy %s at ratio %s",
		seed, pol, rt.Name)
	data, err := spec.Encode()
	if err != nil {
		fmt.Fprintln(os.Stderr, "memtis-sim:", err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
}

// compileScenario loads and compiles one spec file, resolving trace
// paths relative to the file's directory. Exits on error: a broken
// spec is a usage problem, not a crash.
func compileScenario(path string) *scenario.Runner {
	spec, err := scenario.DecodeFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memtis-sim: -scenario:", err)
		os.Exit(2)
	}
	sc, err := scenario.Compile(spec, scenario.Options{Dir: filepath.Dir(path)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "memtis-sim: -scenario:", err)
		os.Exit(2)
	}
	return sc
}

// runScenarioSingle mirrors the single-workload path for one scenario
// spec file: same trace/series plumbing, same metrics block, baseline
// normalisation against the scenario's all-capacity run.
func runScenarioSingle(cfg bench.Config, path, pname, ratio, series, traceOut string, baseline bool) {
	if !bench.KnownPolicy(pname) {
		fmt.Fprintf(os.Stderr, "unknown policy %q (see -list)\n", pname)
		os.Exit(2)
	}
	r := parseRatio(ratio)
	sc := compileScenario(path)
	if series != "" {
		cfg.RecordNS = 300_000
	}
	flushTrace := setupTrace(&cfg, traceOut)
	res := bench.RunScenario(sc, pname, r, cfg)
	cfg.Trace = nil
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "memtis-sim:", err)
		os.Exit(1)
	}
	if series != "" {
		if err := writeSeriesCSV(series, res); err != nil {
			fmt.Fprintln(os.Stderr, "memtis-sim:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("scenario        %s (%s)\n", sc.Name(), path)
	// The scenario's own fault plan overrides -faults (see ScenarioMachine).
	printResult(res, r.Name, cfg, cfg.Faults.Enabled() || sc.FaultConfig().Enabled())
	printTenants(res)
	if baseline {
		b := bench.RunScenarioBaseline(sc, cfg)
		fmt.Printf("normalized perf %.3f (vs all-%s)\n", bench.Norm(res, b), cfg.CapKind)
	}
}

// runScenarioMatrix fans a comma-separated list of spec files out over
// the (ratio, policy) lists on the parallel experiment runner, exactly
// like the workload matrix.
func runScenarioMatrix(cfg bench.Config, slist, plist, rlist string, workers int) {
	var (
		scs   []*scenario.Runner
		names []string
		seen  = map[string]bool{}
	)
	for _, f := range split(slist) {
		sc := compileScenario(f)
		if seen[sc.Name()] {
			fmt.Fprintf(os.Stderr, "duplicate scenario name %q (cell seeds and table rows would collide)\n", sc.Name())
			os.Exit(2)
		}
		seen[sc.Name()] = true
		scs = append(scs, sc)
		names = append(names, sc.Name())
	}
	var ratios []bench.Ratio
	for _, rn := range split(rlist) {
		ratios = append(ratios, parseRatio(rn))
	}
	pols := split(plist)
	for _, p := range pols {
		if !bench.KnownPolicy(p) {
			fmt.Fprintf(os.Stderr, "unknown policy %q (see -list)\n", p)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runner := bench.Parallel(workers)
	runner.Progress = matrixProgress
	m, err := runner.RunScenarioMatrix(ctx, cfg, scs, ratios, pols)
	if err != nil {
		var ce *bench.Cancelled
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "\nmemtis-sim: interrupted after %d/%d cells\n", ce.Done, ce.Total)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "\nmemtis-sim:", err)
		os.Exit(1)
	}
	title := fmt.Sprintf("normalized performance (capacity tier: %s, seed %d, %d accesses/cell)",
		cfg.CapKind, cfg.Seed, cfg.Accesses)
	fmt.Print(bench.MatrixTable(title, m, names, ratios, pols).String())
}

// parseRatio resolves one ratio name or exits with a usage error.
func parseRatio(name string) bench.Ratio {
	switch name {
	case "1:2":
		return bench.Ratio1to2
	case "1:8":
		return bench.Ratio1to8
	case "1:16":
		return bench.Ratio1to16
	case "2:1":
		return bench.Ratio2to1
	default:
		fmt.Fprintf(os.Stderr, "unknown ratio %q\n", name)
		os.Exit(2)
		panic("unreachable")
	}
}

// split parses a comma-separated flag value, dropping empty fields.
func split(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// matrixProgress is the stderr progress line shared by both matrix modes.
func matrixProgress(p bench.Progress) {
	fmt.Fprintf(os.Stderr, "\r\033[K%d/%d cells  %.2fs virtual  %s", p.Done, p.Total, float64(p.VirtualNS)/1e9, p.Cell)
	if p.Done == p.Total {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
}

// runMatrix is the comma-list mode: every (workload, ratio, policy)
// combination runs on the parallel experiment runner with per-cell
// derived seeds, and the normalized table is printed.
func runMatrix(cfg bench.Config, wlist, plist, rlist string, workers int) {
	workloads := split(wlist)
	if wlist == "all" {
		workloads = nil
		for _, s := range workload.Specs() {
			workloads = append(workloads, s.Name)
		}
	}
	var ratios []bench.Ratio
	for _, rn := range split(rlist) {
		ratios = append(ratios, parseRatio(rn))
	}
	pols := split(plist)

	// Validate names up front so a typo is a usage error, not a panic
	// somewhere inside the worker pool.
	known := map[string]bool{}
	for _, s := range workload.Specs() {
		known[s.Name] = true
	}
	for _, w := range workloads {
		if !known[w] {
			fmt.Fprintf(os.Stderr, "unknown workload %q (see -list)\n", w)
			os.Exit(2)
		}
	}
	for _, p := range pols {
		if !bench.KnownPolicy(p) {
			fmt.Fprintf(os.Stderr, "unknown policy %q (see -list)\n", p)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runner := bench.Parallel(workers)
	runner.Progress = matrixProgress
	m, err := runner.RunMatrix(ctx, cfg, workloads, ratios, pols)
	if err != nil {
		var ce *bench.Cancelled
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "\nmemtis-sim: interrupted after %d/%d cells\n", ce.Done, ce.Total)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "\nmemtis-sim:", err)
		os.Exit(1)
	}
	title := fmt.Sprintf("normalized performance (capacity tier: %s, seed %d, %d accesses/cell)",
		cfg.CapKind, cfg.Seed, cfg.Accesses)
	fmt.Print(bench.MatrixTable(title, m, workloads, ratios, pols).String())
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// writeSeriesCSV dumps the run's recorded time series.
func writeSeriesCSV(path string, res sim.Result) error {
	var b strings.Builder
	b.WriteString("time_ms,hot_mb,warm_mb,cold_mb,rss_mb,fast_used_mb,fast_hit,tput_Maccess_s\n")
	for _, p := range res.Series {
		fmt.Fprintf(&b, "%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.4f,%.3f\n",
			float64(p.TimeNS)/1e6,
			mb(p.HotBytes), mb(p.WarmBytes), mb(p.ColdBytes),
			mb(p.RSSBytes), mb(p.FastUsed), p.FastHitWin, p.ThroughputWin/1e6)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
