// Command benchreport runs the repository's hot-path benchmark suite
// and records the result as a schema-stable JSON snapshot, so the
// per-access cost of the simulator is tracked continuously instead of
// anecdotally.
//
// It shells out to `go test -bench` over the hot-path packages
// (internal/sim, internal/vm, internal/tlb, internal/bench,
// internal/core and internal/dist by default),
// parses the standard benchmark output, and writes BENCH_<n>.json into
// the output directory, where <n> is one past the highest existing
// snapshot. When a previous snapshot exists it also prints a
// per-benchmark comparison and — with -maxregress set — fails if any
// shared benchmark's ns/op regressed beyond the threshold, which is how
// CI and `make bench` gate the hot loop.
//
// Usage:
//
//	benchreport                          # measure, snapshot, compare
//	benchreport -benchtime 1x            # CI smoke: compile + run once
//	benchreport -maxregress 0.25         # fail on >25% ns/op regression
//	benchreport -bench MachineAccess     # subset by benchmark regexp
//	benchreport -ratio 'BenchmarkTenantAccess/tenants=1 BenchmarkMachineAccess 2.0'
//
// The -ratio gate bounds one benchmark's ns/op against another's from
// the same run: both sides move with the runner's speed, so the ratio
// stays meaningful on noisy shared CI machines where absolute ns/op
// thresholds do not.
//
// The JSON schema is stable ("benchreport/v1"): benchmarks are sorted
// by package then name, names are stripped of the -GOMAXPROCS suffix,
// and every entry carries ns_per_op, bytes_per_op, allocs_per_op and
// accesses_per_sec (iterations per second — every benchmark in the
// suite issues one access or lookup per iteration).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Report is the top-level BENCH_<n>.json document (schema
// "benchreport/v1"). Field order and names are part of the contract:
// downstream diffs and the regression gate rely on them.
type Report struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Benchtime  string  `json:"benchtime"`
	Count      int     `json:"count"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one benchmark's measurement. AccessesPerSec is derived
// (1e9/NsPerOp) and recorded so trajectory plots need no arithmetic.
type Bench struct {
	Name           string  `json:"name"`
	Package        string  `json:"package"`
	NsPerOp        float64 `json:"ns_per_op"`
	BytesPerOp     uint64  `json:"bytes_per_op"`
	AllocsPerOp    uint64  `json:"allocs_per_op"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
}

func main() {
	var (
		pkgs       = flag.String("pkgs", "./internal/sim,./internal/vm,./internal/tlb,./internal/bench,./internal/core,./internal/dist", "comma-separated packages holding the benchmark suite")
		benchRe    = flag.String("bench", ".", "benchmark selection regexp (go test -bench)")
		benchtime  = flag.String("benchtime", "300ms", "go test -benchtime (use 1x for a smoke run)")
		count      = flag.Int("count", 1, "go test -count; with >1 the best (minimum) ns/op per benchmark is recorded")
		outDir     = flag.String("out", ".", "directory for BENCH_<n>.json snapshots")
		baseline   = flag.String("baseline", "", "explicit baseline JSON (default: highest BENCH_<n>.json in -out)")
		maxRegress = flag.Float64("maxregress", 0, "fail when any shared benchmark's ns/op regresses by more than this fraction (0 disables the gate)")
		dry        = flag.Bool("dry", false, "measure and compare but do not write a snapshot")
		ratio      = flag.String("ratio", "", "same-run ratio gate: \"NUM DEN MAX\" (whitespace-separated benchmark names and a bound) — fail when NUM's ns/op exceeds MAX x DEN's ns/op in this run")
	)
	flag.Parse()

	prevPath, prevN := latestSnapshot(*outDir)
	if *baseline != "" {
		prevPath = *baseline
	}

	rep, err := measure(strings.Split(*pkgs, ","), *benchRe, *benchtime, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(2)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no benchmarks matched")
		os.Exit(2)
	}

	if !*dry {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
		path := filepath.Join(*outDir, fmt.Sprintf("BENCH_%d.json", prevN+1))
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", path, len(rep.Benchmarks))
	}

	if prevPath == "" {
		fmt.Println("no baseline snapshot; comparison skipped")
		return
	}
	prev, err := readReport(prevPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(2)
	}
	regressed := compare(os.Stdout, prev, rep, prevPath, *maxRegress)
	if regressed {
		fmt.Fprintf(os.Stderr, "benchreport: ns/op regression beyond %.0f%% threshold\n", *maxRegress*100)
		os.Exit(1)
	}
	checkRatio(rep, *ratio)
}

// checkRatio enforces the -ratio gate: both sides are measured in this
// run on the same machine, so the ratio is robust to runner speed where
// absolute ns/op bounds are not — the form CI uses to gate scheduler
// overhead. Benchmark names cannot contain spaces, so the spec is
// whitespace-separated. No-op on an empty spec; exits on failure.
func checkRatio(rep *Report, spec string) {
	if spec == "" {
		return
	}
	f := strings.Fields(spec)
	if len(f) != 3 {
		fmt.Fprintf(os.Stderr, "benchreport: -ratio %q: want \"NUM DEN MAX\"\n", spec)
		os.Exit(2)
	}
	bound, err := strconv.ParseFloat(f[2], 64)
	if err != nil || bound <= 0 {
		fmt.Fprintf(os.Stderr, "benchreport: -ratio %q: bad bound %q\n", spec, f[2])
		os.Exit(2)
	}
	find := func(name string) Bench {
		for _, b := range rep.Benchmarks {
			if b.Name == name {
				return b
			}
		}
		fmt.Fprintf(os.Stderr, "benchreport: -ratio: benchmark %q not in this run (check -bench)\n", name)
		os.Exit(2)
		panic("unreachable")
	}
	num, den := find(f[0]), find(f[1])
	r := num.NsPerOp / den.NsPerOp
	fmt.Printf("ratio gate: %s %.1f ns/op / %s %.1f ns/op = %.2fx (bound %.2fx)\n",
		num.Name, num.NsPerOp, den.Name, den.NsPerOp, r, bound)
	if r > bound {
		fmt.Fprintf(os.Stderr, "benchreport: ratio %.2fx exceeds the %.2fx bound\n", r, bound)
		os.Exit(1)
	}
}

// measure runs the benchmark suite and parses it into a Report. With
// count > 1 the minimum ns/op per benchmark wins (least-noise estimate,
// as benchstat's geomean would be overkill for a trajectory file).
func measure(pkgs []string, benchRe, benchtime string, count int) (*Report, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe,
		"-benchtime", benchtime, "-benchmem", "-count", strconv.Itoa(count)}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %v\n%s%s", err, errb.String(), out.String())
	}
	rep := &Report{
		Schema:    "benchreport/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime,
		Count:     count,
	}
	best := map[string]Bench{} // key: package + "." + name
	var pkg string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		b, ok := parseBenchLine(line, pkg)
		if !ok {
			continue
		}
		key := b.Package + "." + b.Name
		if prev, seen := best[key]; !seen || b.NsPerOp < prev.NsPerOp {
			best[key] = b
		}
	}
	for _, b := range best {
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		a, b := rep.Benchmarks[i], rep.Benchmarks[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	return rep, nil
}

// gomaxprocsSuffix strips the -N parallelism suffix go test appends to
// benchmark names, so snapshots compare across machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine decodes one `BenchmarkFoo-8  N  x ns/op  y B/op  z
// allocs/op` line; ok is false for non-benchmark lines.
func parseBenchLine(line, pkg string) (Bench, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Bench{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 {
		return Bench{}, false
	}
	b := Bench{Name: gomaxprocsSuffix.ReplaceAllString(f[0], ""), Package: pkg}
	for i := 2; i+1 < len(f); i++ {
		v := f[i]
		switch f[i+1] {
		case "ns/op":
			ns, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Bench{}, false
			}
			b.NsPerOp = ns
		case "B/op":
			b.BytesPerOp, _ = strconv.ParseUint(v, 10, 64)
		case "allocs/op":
			b.AllocsPerOp, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	if b.NsPerOp <= 0 {
		return Bench{}, false
	}
	b.AccessesPerSec = 1e9 / b.NsPerOp
	return b, true
}

// latestSnapshot returns the highest-numbered BENCH_<n>.json in dir
// (path "" and n -1 when none exist, so the first snapshot written is
// BENCH_0.json).
func latestSnapshot(dir string) (path string, n int) {
	n = -1
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", n
	}
	for _, e := range entries {
		var k int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &k); err == nil &&
			e.Name() == fmt.Sprintf("BENCH_%d.json", k) && k > n {
			n = k
			path = filepath.Join(dir, e.Name())
		}
	}
	return path, n
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// compare prints a per-benchmark delta table against the baseline and
// reports whether any shared benchmark regressed beyond maxRegress
// (ignored when <= 0). A 1x-smoke baseline or measurement compares like
// any other — callers that want timing to be meaningful pass a real
// benchtime.
func compare(w *os.File, prev, cur *Report, prevPath string, maxRegress float64) bool {
	old := map[string]Bench{}
	for _, b := range prev.Benchmarks {
		old[b.Package+"."+b.Name] = b
	}
	fmt.Fprintf(w, "vs %s:\n", prevPath)
	regressed := false
	for _, b := range cur.Benchmarks {
		p, ok := old[b.Package+"."+b.Name]
		if !ok {
			fmt.Fprintf(w, "  %-50s %10.1f ns/op  (new)\n", b.Name, b.NsPerOp)
			continue
		}
		delta := (b.NsPerOp - p.NsPerOp) / p.NsPerOp
		mark := ""
		if maxRegress > 0 && delta > maxRegress {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "  %-50s %10.1f -> %10.1f ns/op  %+6.1f%%%s\n",
			b.Name, p.NsPerOp, b.NsPerOp, delta*100, mark)
	}
	return regressed
}
