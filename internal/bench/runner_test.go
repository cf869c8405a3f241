package bench

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// detCfg is the determinism-test budget: large enough that policies
// migrate, split and cool (so the comparison covers real state), small
// enough for -race CI runs.
func detCfg() Config {
	cfg := DefaultConfig()
	cfg.Accesses = 300_000
	cfg.RecordNS = 500_000 // record series so they are compared too
	return cfg
}

// subMatrix is the Fig-5 sub-matrix used by the determinism tests.
func subMatrix() (workloads []string, ratios []Ratio, pols []string) {
	return []string{"silo", "pagerank"},
		[]Ratio{Ratio1to2, Ratio1to8},
		[]string{"tpp", "hemem", "memtis"}
}

// diffMatrices reports the first cell-level difference between two
// matrices, or "" when they are identical (values, series, stats).
func diffMatrices(a, b *Matrix) string {
	if len(a.Cells) != len(b.Cells) {
		return fmt.Sprintf("cell count %d != %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Workload != cb.Workload || ca.Ratio != cb.Ratio || ca.Policy != cb.Policy {
			return fmt.Sprintf("cell %d order: %s/%s/%s != %s/%s/%s",
				i, ca.Workload, ca.Ratio, ca.Policy, cb.Workload, cb.Ratio, cb.Policy)
		}
		if ca.Value != cb.Value {
			return fmt.Sprintf("cell %s/%s/%s value %v != %v", ca.Workload, ca.Ratio, ca.Policy, ca.Value, cb.Value)
		}
		if !reflect.DeepEqual(ca.Result, cb.Result) {
			return fmt.Sprintf("cell %s/%s/%s result differs: %+v != %+v",
				ca.Workload, ca.Ratio, ca.Policy, ca.Result, cb.Result)
		}
	}
	return ""
}

// TestRunMatrixDeterminism is the parallel ≡ sequential regression
// test: the same Fig-5 sub-matrix run twice sequentially and once with
// 8 workers must produce byte-identical cells (values, series, stats)
// for the same Config.Seed. CI runs this under -race (make race).
func TestRunMatrixDeterminism(t *testing.T) {
	cfg := detCfg()
	ws, rs, ps := subMatrix()
	ctx := context.Background()

	seq1, err := Sequential().RunMatrix(ctx, cfg, ws, rs, ps)
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := Sequential().RunMatrix(ctx, cfg, ws, rs, ps)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Parallel(8).RunMatrix(ctx, cfg, ws, rs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffMatrices(seq1, seq2); d != "" {
		t.Fatalf("sequential not reproducible: %s", d)
	}
	if d := diffMatrices(seq1, par); d != "" {
		t.Fatalf("parallel differs from sequential: %s", d)
	}
	if len(seq1.Cells) != len(ws)*len(rs)*len(ps) {
		t.Fatalf("cell count %d", len(seq1.Cells))
	}
}

// TestRunMatrixSeedSensitivity guards against the runner ignoring the
// base seed: a different Config.Seed must change at least one cell.
func TestRunMatrixSeedSensitivity(t *testing.T) {
	cfg := detCfg()
	ws := []string{"silo"}
	rs := []Ratio{Ratio1to8}
	ps := []string{"memtis"}
	a, err := Sequential().RunMatrix(context.Background(), cfg, ws, rs, ps)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	b, err := Sequential().RunMatrix(context.Background(), cfg, ws, rs, ps)
	if err != nil {
		t.Fatal(err)
	}
	if diffMatrices(a, b) == "" {
		t.Fatal("changing the base seed left every cell identical")
	}
}

func TestCellSeedProperties(t *testing.T) {
	// Distinct coordinates yield distinct seeds (42 base, full Fig 5).
	seen := map[int64]string{}
	for _, w := range []string{"graph500", "pagerank", "xsbench", "liblinear", "silo", "btree", "603.bwaves", "654.roms", "baseline"} {
		for _, r := range []string{"1:2", "1:8", "1:16", "2:1", "baseline"} {
			for _, p := range append(append([]string{}, Policies...), "all-capacity", "all-dram-thp") {
				s := CellSeed(42, w, r, p)
				key := w + "/" + r + "/" + p
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed collision: %s and %s -> %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
	// Stable: same inputs, same seed.
	if CellSeed(42, "silo", "1:8", "memtis") != CellSeed(42, "silo", "1:8", "memtis") {
		t.Fatal("CellSeed not stable")
	}
	// Base seed participates.
	if CellSeed(42, "silo", "1:8", "memtis") == CellSeed(43, "silo", "1:8", "memtis") {
		t.Fatal("base seed ignored")
	}
	// Coordinate order matters (workload/ratio swap must not alias).
	if CellSeed(42, "a", "b", "c") == CellSeed(42, "b", "a", "c") {
		t.Fatal("coordinate aliasing")
	}
}

func TestCellConfigOnlyChangesSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accesses = 777
	got := CellConfig(cfg, "silo", "1:8", "memtis")
	if got.Seed == cfg.Seed {
		t.Fatal("seed not derived")
	}
	got.Seed = cfg.Seed
	if got != cfg {
		t.Fatalf("CellConfig altered more than the seed: %+v vs %+v", got, cfg)
	}
}

// TestRunnerCancellation: a cancelled context stops the fan-out early
// and surfaces a Cancelled error that still matches context.Canceled
// and reports how many cells completed out of how many were asked for.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	started := 0
	tasks := make([]cellTask, 64)
	for i := range tasks {
		tasks[i] = cellTask{label: fmt.Sprintf("t%d", i), run: func() uint64 {
			mu.Lock()
			started++
			if started == 2 {
				cancel()
			}
			mu.Unlock()
			return 1
		}}
	}
	err := Parallel(2).do(ctx, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var ce *Cancelled
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *Cancelled", err)
	}
	mu.Lock()
	ran := started
	mu.Unlock()
	if ce.Total != len(tasks) {
		t.Fatalf("Total = %d, want %d", ce.Total, len(tasks))
	}
	if ce.Done != ran {
		t.Fatalf("Done = %d, but %d cells ran", ce.Done, ran)
	}
	if ran == len(tasks) {
		t.Fatal("cancellation did not stop the fan-out")
	}
	// Sequential mode observes cancellation too, before running anything
	// on an already-dead context.
	err = Sequential().do(ctx, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential err = %v", err)
	}
	ce = nil
	if !errors.As(err, &ce) || ce.Done != 0 || ce.Total != len(tasks) {
		t.Fatalf("sequential Cancelled = %+v", ce)
	}
}

// TestCancelledReportMatchesProgress: the Done count in the Cancelled
// error must equal the last progress event's Done — this is the count
// the CLIs print, and it used to be silently dropped on cancellation.
func TestCancelledReportMatchesProgress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var last Progress
	r := &Runner{Workers: 4, Progress: func(p Progress) { last = p }}
	started := 0
	tasks := make([]cellTask, 32)
	for i := range tasks {
		tasks[i] = cellTask{label: fmt.Sprintf("t%d", i), run: func() uint64 {
			mu.Lock()
			started++
			if started == 3 {
				cancel()
			}
			mu.Unlock()
			return 1
		}}
	}
	err := r.do(ctx, tasks)
	var ce *Cancelled
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *Cancelled", err)
	}
	if ce.Done != last.Done {
		t.Fatalf("Cancelled.Done = %d, last progress Done = %d", ce.Done, last.Done)
	}
	if msg := ce.Error(); msg == "" || !errors.Is(ce, context.Canceled) {
		t.Fatalf("Cancelled formatting/unwrap broken: %q", msg)
	}
}

// TestRunnerProgress checks the callback sees every completion exactly
// once with a monotonically growing Done and cumulative virtual time.
func TestRunnerProgress(t *testing.T) {
	const n = 10
	for _, workers := range []int{1, 4} {
		var events []Progress
		r := &Runner{Workers: workers, Progress: func(p Progress) { events = append(events, p) }}
		tasks := make([]cellTask, n)
		for i := range tasks {
			tasks[i] = cellTask{label: fmt.Sprintf("t%d", i), run: func() uint64 { return 5 }}
		}
		if err := r.do(context.Background(), tasks); err != nil {
			t.Fatal(err)
		}
		if len(events) != n {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(events), n)
		}
		for i, e := range events {
			if e.Done != i+1 || e.Total != n {
				t.Fatalf("workers=%d event %d: %+v", workers, i, e)
			}
			if e.VirtualNS != uint64(5*(i+1)) {
				t.Fatalf("workers=%d virtual time %d at event %d", workers, e.VirtualNS, i)
			}
		}
	}
}

// TestRunAllShape: the full default fan-out (RunMatrix with nil
// slices) covers every Table 2 workload, main ratio and Figure 5
// policy. Budget kept tiny — this checks shape, not performance.
func TestRunAllShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := DefaultConfig()
	cfg.Accesses = 60_000
	m, err := Parallel(0).RunMatrix(context.Background(), cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * len(MainRatios) * len(Policies)
	if len(m.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(m.Cells), want)
	}
	for _, c := range m.Cells {
		if c.Result.Accesses == 0 {
			t.Fatalf("cell %s/%s/%s never ran", c.Workload, c.Ratio, c.Policy)
		}
	}
}

// TestKnownPolicyMatchesNewPolicy keeps the validation helper in sync
// with the factory: every name KnownPolicy accepts must construct, and
// rejected names must be the ones NewPolicy panics on.
func TestKnownPolicyMatchesNewPolicy(t *testing.T) {
	for _, name := range AllPolicies {
		if !KnownPolicy(name) {
			t.Errorf("KnownPolicy(%q) = false", name)
		}
		if NewPolicy(name) == nil {
			t.Errorf("NewPolicy(%q) = nil", name)
		}
	}
	for _, name := range []string{"", "bogus", "MEMTIS", "memtis "} {
		if KnownPolicy(name) {
			t.Errorf("KnownPolicy(%q) = true", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPolicy(%q) did not panic", name)
				}
			}()
			NewPolicy(name)
		}()
	}
}

// TestFiguresParallelMatchSequential: every figure that simulates,
// run at a small budget on one worker and on four, returns equal data
// and renders the same table. CI runs it under -race (make race).
func TestFiguresParallelMatchSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accesses = 30_000 // Fig 1 still runs its 3M-access floor
	ctx := context.Background()
	figs := []struct {
		name string
		run  func(*Runner) (any, Table, error)
	}{
		{"fig1", func(r *Runner) (any, Table, error) { return r.Fig1(ctx, cfg) }},
		{"fig2", func(r *Runner) (any, Table, error) { return r.Fig2(ctx, cfg) }},
		{"fig3", func(r *Runner) (any, Table, error) { return r.Fig3(ctx, cfg) }},
		{"table2", func(r *Runner) (any, Table, error) {
			tb, err := r.Table2(ctx, cfg)
			return nil, tb, err
		}},
		{"table3", func(r *Runner) (any, Table, error) { return r.Table3(ctx, cfg) }},
		{"fig7", func(r *Runner) (any, Table, error) { return r.Fig7(ctx, cfg) }},
		{"fig9", func(r *Runner) (any, Table, error) { return r.Fig9(ctx, cfg) }},
		{"fig10", func(r *Runner) (any, Table, error) { return r.Fig10(ctx, cfg) }},
		{"fig11", func(r *Runner) (any, Table, error) { return r.Fig11(ctx, cfg) }},
		{"fig12", func(r *Runner) (any, Table, error) { return r.Fig12(ctx, cfg) }},
		{"fig13", func(r *Runner) (any, Table, error) { return r.Fig13(ctx, cfg) }},
		{"overhead", func(r *Runner) (any, Table, error) { return r.Overhead(ctx, cfg) }},
	}
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			seqData, seqTab, err := f.run(Sequential())
			if err != nil {
				t.Fatal(err)
			}
			parData, parTab, err := f.run(Parallel(4))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqData, parData) {
				t.Errorf("data differs:\nsequential %+v\nparallel   %+v", seqData, parData)
			}
			if s, p := seqTab.String(), parTab.String(); s != p {
				t.Errorf("table differs:\nsequential\n%s\nparallel\n%s", s, p)
			}
		})
	}
}
