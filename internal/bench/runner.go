// The parallel experiment runner: fans the cells of every experiment
// that simulates (the (workload, ratio, policy) matrices, the sweeps
// and each figure's runs) out to a bounded worker pool, one
// independent simulated machine per cell, and assembles results in
// deterministic plot order regardless of completion order.
//
// Determinism across worker counts rests on two invariants:
//
//  1. Every cell's RNG seed is fixed by Config.Seed and its own
//     coordinates: matrix cells derive it via CellSeed, and the
//     figures whose loops predate the runner use Config.Seed itself.
//     No cell's stream depends on how many cells ran before it, so
//     scheduling cannot perturb results.
//  2. A cell runs on a private Machine, Policy and Workload instance;
//     no package in the simulator holds mutable global state (see
//     TestMachinesAreIndependent in internal/sim).
//
// The determinism regression tests in runner_test.go assert that
// multi-worker runs are cell-for-cell identical to sequential ones.
package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"memtis/internal/obs"
	"memtis/internal/sim"
)

// CellSeed derives an independent per-cell RNG seed from the base seed
// and the cell's matrix coordinates using FNV-1a hashes of the
// coordinates pushed through a SplitMix64 finalizer. Cells of the same
// matrix get statistically independent streams; the same coordinates
// and base seed always yield the same stream.
func CellSeed(base int64, workload, ratio, policy string) int64 {
	h := splitmix64(uint64(base) ^ fnv1a(workload))
	h = splitmix64(h ^ fnv1a(ratio))
	h = splitmix64(h ^ fnv1a(policy))
	return int64(h)
}

// splitmix64 is the SplitMix64 finalizer (Steele et al., "Fast
// splittable pseudorandom number generators"): a bijective avalanche
// mix, so distinct inputs cannot collide by construction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes a coordinate string (FNV-1a 64-bit).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// CellConfig returns cfg with Seed replaced by the cell-derived seed.
// Matrix runners use it for every cell; single-run entry points
// (RunOne with a caller-chosen seed) are unaffected.
func CellConfig(cfg Config, workload, ratio, policy string) Config {
	cfg.Seed = CellSeed(cfg.Seed, workload, ratio, policy)
	return cfg
}

// Cancelled reports a fan-out stopped by context cancellation before
// every cell ran. It wraps the context's error, so
// errors.Is(err, context.Canceled) keeps matching; callers that want
// the completed-cell count unwrap it with errors.As.
type Cancelled struct {
	Done  int   // cells that finished before the stop
	Total int   // cells the fan-out was asked to run
	Cause error // the context's error (Canceled or DeadlineExceeded)
}

// Error implements error.
func (e *Cancelled) Error() string {
	return fmt.Sprintf("bench: cancelled after %d/%d cells: %v", e.Done, e.Total, e.Cause)
}

// Unwrap exposes the context's error to errors.Is/errors.As.
func (e *Cancelled) Unwrap() error { return e.Cause }

// Progress is one runner progress event, emitted after each cell
// completes.
type Progress struct {
	Done      int    // cells finished so far
	Total     int    // cells in this fan-out
	Cell      string // label of the cell that just finished
	VirtualNS uint64 // cumulative simulated virtual time across cells
}

// Runner executes experiment cells on a bounded worker pool.
//
// Workers <= 0 uses GOMAXPROCS; Workers == 1 is the sequential mode:
// cells run in enumeration order on the calling goroutine (the
// reference for the parallel-equals-sequential tests). The zero value
// is a parallel runner with no progress reporting.
type Runner struct {
	Workers int
	// Progress, when set, observes every cell completion. It is called
	// under the runner's lock: keep it fast and do not call back into
	// the runner.
	Progress func(Progress)
}

// Sequential returns a single-worker runner — the determinism
// reference.
func Sequential() *Runner { return &Runner{Workers: 1} }

// Parallel returns a runner with n workers (n <= 0: GOMAXPROCS).
func Parallel(n int) *Runner { return &Runner{Workers: n} }

// cellTask is one schedulable unit: label for progress reporting, run
// executes the cell (writing into its pre-assigned result slot) and
// returns the virtual nanoseconds it simulated.
type cellTask struct {
	label string
	run   func() uint64
}

// do drains tasks with the runner's worker bound. Each task owns its
// result slot, so workers never share mutable state; only the progress
// counters are locked. On context cancellation, in-flight cells finish
// and the remainder are never started.
func (r *Runner) do(ctx context.Context, tasks []cellTask) error {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	total := len(tasks)
	if workers <= 1 {
		// Sequential fast path on the calling goroutine: natural stacks
		// for panics and no scheduler in the loop.
		var virt uint64
		for i, t := range tasks {
			if err := ctx.Err(); err != nil {
				return &Cancelled{Done: i, Total: total, Cause: err}
			}
			virt += t.run()
			if r.Progress != nil {
				r.Progress(Progress{Done: i + 1, Total: total, Cell: t.label, VirtualNS: virt})
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
		virt uint64
	)
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range tasks {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				v := tasks[i].run()
				mu.Lock()
				done++
				virt += v
				if r.Progress != nil {
					r.Progress(Progress{Done: done, Total: total, Cell: tasks[i].label, VirtualNS: virt})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// done is stable once every worker has exited; no lock needed.
	if err := ctx.Err(); err != nil {
		return &Cancelled{Done: done, Total: total, Cause: err}
	}
	return nil
}

// cellTrace attaches a per-cell JSONL tracer to ccfg when dir is
// non-empty, returning a flush-and-close func. It always clears
// ccfg.Trace first: runner cells never share a caller-supplied tracer
// (parallel cells would interleave one stream).
func cellTrace(dir, workload, ratio, polName string, ccfg *Config) (func() error, error) {
	ccfg.Trace = nil
	if dir == "" {
		return func() error { return nil }, nil
	}
	name := fmt.Sprintf("%s_%s_%s.events.jsonl",
		fileSafe(workload), fileSafe(ratio), fileSafe(polName))
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	sink := obs.NewJSONL(f)
	ccfg.Trace = obs.NewTracer(sink)
	return func() error {
		if err := sink.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// fileSafe maps a matrix coordinate onto a file-name fragment: ':' (in
// ratio names) is spelled "to", path separators become '-'.
func fileSafe(s string) string {
	s = strings.ReplaceAll(s, ":", "to")
	return strings.ReplaceAll(s, "/", "-")
}

// simCell is one cell whose whole output is a sim.Result. Its
// coordinates label its progress line, name its event trace and key
// its derived seed.
type simCell struct {
	workload, ratio, policy string
	run                     func(Config) sim.Result
}

// The seed choices of runSims.
const (
	cellSeeds = true  // each cell runs on CellConfig(cfg, its coordinates)
	baseSeed  = false // every cell runs on cfg.Seed itself
)

// runSims fans cells out on the pool and returns their results in cell
// order. Each cell's seed follows derive (cellSeeds or baseSeed); it
// gets its own JSONL trace under cfg.EventDir when that is set, and
// never cfg.Trace. The first trace-I/O failure fails the whole
// fan-out: a requested trace that could not be written invalidates the
// results.
func (r *Runner) runSims(ctx context.Context, cfg Config, derive bool, cells []simCell) ([]sim.Result, error) {
	if cfg.EventDir != "" {
		if err := os.MkdirAll(cfg.EventDir, 0o755); err != nil {
			return nil, err
		}
	}
	var (
		failMu sync.Mutex
		failed error
	)
	fail := func(err error) {
		failMu.Lock()
		if failed == nil {
			failed = err
		}
		failMu.Unlock()
	}
	results := make([]sim.Result, len(cells))
	tasks := make([]cellTask, len(cells))
	for i, c := range cells {
		tasks[i] = cellTask{
			label: c.workload + "/" + c.ratio + "/" + c.policy,
			run: func() uint64 {
				ccfg := cfg
				if derive {
					ccfg = CellConfig(cfg, c.workload, c.ratio, c.policy)
				}
				closeTrace, err := cellTrace(cfg.EventDir, c.workload, c.ratio, c.policy, &ccfg)
				if err != nil {
					fail(err)
					return 0
				}
				results[i] = c.run(ccfg)
				if err := closeTrace(); err != nil {
					fail(err)
				}
				return results[i].AppNS
			},
		}
	}
	if err := r.do(ctx, tasks); err != nil {
		return nil, err
	}
	if failed != nil {
		return nil, fmt.Errorf("bench: writing event traces: %w", failed)
	}
	return results, nil
}

// runSweep runs a sweep's cells, given row by row with one cell per
// policy in each row, and normalises every cell to the same policy's
// cell in the first row: the sweep's reference plane.
func (r *Runner) runSweep(ctx context.Context, cfg Config, cells []simCell, npols int) (*Matrix, error) {
	res, err := r.runSims(ctx, cfg, cellSeeds, cells)
	if err != nil {
		return nil, err
	}
	m := &Matrix{}
	for i, c := range cells {
		m.Cells = append(m.Cells, Cell{
			Workload: c.workload, Ratio: c.ratio, Policy: c.policy,
			Value: Norm(res[i], res[i%npols]), Result: res[i],
		})
	}
	return m, nil
}

// normMatrix runs each named load's all-capacity baseline and its
// (ratio x policy) cells, then normalises every cell to its load's
// baseline, assembling the Matrix in plot order (loads outer, ratios,
// then policies). RunMatrix and RunScenarioMatrix differ only in how a
// load runs: base and run get the load's index.
func (r *Runner) normMatrix(ctx context.Context, cfg Config, loads []string, ratios []Ratio, pols []string,
	base func(load int, c Config) sim.Result, run func(load int, rt Ratio, p string, c Config) sim.Result) (*Matrix, error) {
	var cells []simCell
	for li, name := range loads {
		cells = append(cells, simCell{name, "baseline", "all-capacity", func(c Config) sim.Result { return base(li, c) }})
		for _, rt := range ratios {
			for _, p := range pols {
				cells = append(cells, simCell{name, rt.Name, p, func(c Config) sim.Result { return run(li, rt, p, c) }})
			}
		}
	}
	res, err := r.runSims(ctx, cfg, cellSeeds, cells)
	if err != nil {
		return nil, err
	}
	m := &Matrix{}
	per := 1 + len(ratios)*len(pols)
	for i, c := range cells {
		if i%per == 0 {
			continue // the load's baseline
		}
		m.Cells = append(m.Cells, Cell{
			Workload: c.workload, Ratio: c.ratio, Policy: c.policy,
			Value: Norm(res[i], res[i-i%per]), Result: res[i],
		})
	}
	return m, nil
}

// RunMatrix executes the (workload x ratio x policy) matrix plus the
// per-workload all-capacity baselines every figure normalises against,
// and assembles the normalised Matrix in plot order (workloads outer,
// ratios, then policies) regardless of completion order. Nil slices
// select the Figure 5 defaults.
func (r *Runner) RunMatrix(ctx context.Context, cfg Config, workloads []string, ratios []Ratio, pols []string) (*Matrix, error) {
	if workloads == nil {
		workloads = workloadNames()
	}
	if ratios == nil {
		ratios = MainRatios
	}
	if pols == nil {
		pols = Policies
	}
	return r.normMatrix(ctx, cfg, workloads, ratios, pols,
		func(i int, c Config) sim.Result { return RunBaseline(workloads[i], c) },
		func(i int, rt Ratio, p string, c Config) sim.Result { return RunOne(workloads[i], p, rt, c) })
}

// MatrixTable renders a matrix as a (workload, ratio) x policy table
// with per-ratio geomean rows — the Figure 5 presentation, reused by
// cmd/memtis-sim's matrix mode.
func MatrixTable(title string, m *Matrix, workloads []string, ratios []Ratio, pols []string) Table {
	t := Table{Title: title, Header: append([]string{"workload", "ratio"}, pols...)}
	for _, wname := range workloads {
		for _, rt := range ratios {
			row := []interface{}{wname, rt.Name}
			for _, p := range pols {
				v, _ := m.Get(wname, rt.Name, p)
				row = append(row, v)
			}
			t.AddRow(row...)
		}
	}
	for _, rt := range ratios {
		row := []interface{}{"geomean", rt.Name}
		for _, p := range pols {
			var vals []float64
			for _, wname := range workloads {
				if v, ok := m.Get(wname, rt.Name, p); ok {
					vals = append(vals, v)
				}
			}
			row = append(row, Geomean(vals))
		}
		t.AddRow(row...)
	}
	return t
}
