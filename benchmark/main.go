// Command benchmark measures what the simulator costs to run: four
// jobs the repository runs (the Figure 5 matrix, one long MEMTIS cell,
// the tenant sweep and the scenario conformance hunt), timed end to end
// with tracing off, and, with -trace 1, split layer by layer by timing
// calls into each layer's public functions on reference cells.
//
// Usage:
//
//	benchmark [-workload fig5,memtis-silo,tenants,hunt|all] [-seed 42]
//	          [-seconds 20] [-trace 0|1]
//
// One workload runs in this process; a list runs each workload in its
// own child process, so CPU and memory figures are per workload. The
// output is one "name value unit" line per metric, the sim_digest of
// every simulated result, and, as the last line, a JSON object with
// the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). The command exits 1 when a cell fails or a check of its
// own outputs does: a reference cell whose traced or untraced rerun
// differs from the job's result, a replay that differs from its direct
// run, or a job whose rounds disagree. See README.md for the metrics
// and why each workload was chosen.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// workers is the matrix worker count, and the CPUs one workload's
// process may use.
const workers = 2

func main() {
	wl := flag.String("workload", "all", "workload to run: a name, a comma-separated list, or all")
	seed := flag.Int64("seed", 42, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 20, "seconds to repeat the end-to-end job for")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := strings.Split(*wl, ",")
	if *wl == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, ok := lookupWorkload(n); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", n)
			os.Exit(2)
		}
	}
	if len(names) > 1 {
		os.Exit(runChildren(names))
	}
	runtime.GOMAXPROCS(workers)
	j := job{workload: names[0], seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, workers: workers}
	rep, err := measure(context.Background(), j)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", j.workload, err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, j); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// runChildren runs each workload in its own process with this
// process's other flags, one after another, and returns 1 if any
// failed.
func runChildren(names []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	code := 0
	for _, n := range names {
		cmd := exec.Command(self, append([]string{"-workload=" + n}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
			code = 1
		}
	}
	return code
}

// write prints the report: every metric as a "name value unit" line,
// the checks that failed, the digest, and the JSON result line.
func (r *report) write(w io.Writer, j job) error {
	fmt.Fprintf(w, "workload %s seed %d workers %d\n", j.workload, j.seed, j.workers)
	fmt.Fprint(w, "round_walls_s")
	for _, v := range r.walls {
		fmt.Fprintf(w, " %.4f", v)
	}
	fmt.Fprintln(w)
	for _, group := range [][]metric{r.e2e, r.layers, r.extra} {
		for _, m := range group {
			fmt.Fprintf(w, "%-34s %-24s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		}
	}
	for _, l := range r.refs {
		fmt.Fprintln(w, l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAIL", p)
	}
	fmt.Fprintf(w, "sim_digest %016x\n", r.digest)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	ms := r.e2e
	if j.trace {
		ms = r.layers
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
