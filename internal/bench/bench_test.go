package bench

import (
	"context"
	"math"
	"strings"
	"testing"

	"memtis/internal/tier"
	"memtis/internal/workload"
)

func TestRatioArithmetic(t *testing.T) {
	// §6.1: 1:2 -> fast is 1/3 of RSS; 1:16 -> 1/17; §6.2.8: 2:1 -> 2/3.
	cases := []struct {
		r    Ratio
		want float64
	}{
		{Ratio1to2, 1.0 / 3}, {Ratio1to8, 1.0 / 9}, {Ratio1to16, 1.0 / 17}, {Ratio2to1, 2.0 / 3},
	}
	for _, c := range cases {
		if math.Abs(c.r.FastFrac-c.want) > 1e-12 {
			t.Errorf("%s: %v != %v", c.r.Name, c.r.FastFrac, c.want)
		}
	}
}

func TestMachineForSizesTiers(t *testing.T) {
	spec, _ := workload.SpecByName("silo")
	cfg := DefaultConfig()
	mc := MachineFor(spec, Ratio1to8, "memtis", cfg)
	wantFast := uint64(float64(spec.RSSBytes()) / 9)
	if mc.FastBytes != wantFast {
		t.Fatalf("fast = %d, want %d", mc.FastBytes, wantFast)
	}
	if mc.CapBytes < spec.RSSBytes() {
		t.Fatal("capacity tier smaller than RSS")
	}
	// HeMem's configured fast tier shrinks by the over-allocation.
	mcH := MachineFor(spec, Ratio1to8, "hemem", cfg)
	if mcH.FastBytes != wantFast-spec.SmallBytes() {
		t.Fatalf("hemem fast = %d, want %d", mcH.FastBytes, wantFast-spec.SmallBytes())
	}
	// HeMem+ keeps the full size (§6.2.9).
	if mcP := MachineFor(spec, Ratio1to8, "hemem+", cfg); mcP.FastBytes != wantFast {
		t.Fatal("hemem+ fast tier must not shrink")
	}
}

func TestNewPolicyNames(t *testing.T) {
	for _, name := range append(append([]string{}, Policies...), "memtis-ns", "memtis-vanilla", "static", "all-fast", "all-capacity") {
		p := NewPolicy(name)
		if p == nil {
			t.Fatalf("NewPolicy(%q) = nil", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy must panic")
		}
	}()
	NewPolicy("bogus")
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean = %v", g)
	}
	if Geomean(nil) != 0 || Geomean([]float64{1, 0}) != 0 {
		t.Fatal("degenerate geomean")
	}
}

func TestMatrixLookups(t *testing.T) {
	m := &Matrix{Cells: []Cell{
		{Workload: "w", Ratio: "1:8", Policy: "a", Value: 1.0},
		{Workload: "w", Ratio: "1:8", Policy: "b", Value: 2.0},
		{Workload: "w", Ratio: "1:8", Policy: "c", Value: 1.5},
	}}
	if v, ok := m.Get("w", "1:8", "b"); !ok || v != 2.0 {
		t.Fatal("Get")
	}
	if _, ok := m.Get("w", "1:8", "zzz"); ok {
		t.Fatal("Get false positive")
	}
	best, second, bv, sv := m.Best("w", "1:8")
	if best != "b" || second != "c" || bv != 2.0 || sv != 1.5 {
		t.Fatalf("Best: %s %s %v %v", best, second, bv, sv)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Header: []string{"a", "b"}}
	tb.AddRow("x", 1.5)
	tb.AddRow("comma,here", uint64(7))
	txt := tb.String()
	if !strings.Contains(txt, "== T ==") || !strings.Contains(txt, "1.500") {
		t.Fatalf("text:\n%s", txt)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "\"comma,here\"") {
		t.Fatalf("csv escaping:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv header:\n%s", csv)
	}
}

func TestTable1Shape(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 10 {
		t.Fatalf("Table 1 rows = %d", len(tb.Rows))
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "MEMTIS" || last[2] != "Yes" {
		t.Fatalf("MEMTIS row: %v", last)
	}
}

// The integration checks below run the real experiment harness on small
// budgets and assert the paper's qualitative claims ("shape"), not
// absolute numbers. They are skipped in -short mode.

func shortCfg() Config {
	cfg := DefaultConfig()
	cfg.Accesses = 1_200_000
	return cfg
}

func TestShapeSiloSplitBeatsNoSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := shortCfg()
	cfg.Accesses = 2_500_000 // splits need a cooling plus benefit windows
	base := RunBaseline("silo", cfg)
	full := Norm(RunOne("silo", "memtis", Ratio1to8, cfg), base)
	ns := Norm(RunOne("silo", "memtis-ns", Ratio1to8, cfg), base)
	if full <= ns*1.05 {
		t.Fatalf("split did not pay off on silo: full %.3f vs ns %.3f", full, ns)
	}
}

func TestShapeMemtisBeatsBaselinesOnSilo(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := shortCfg()
	base := RunBaseline("silo", cfg)
	memtis := Norm(RunOne("silo", "memtis", Ratio1to8, cfg), base)
	for _, p := range []string{"autonuma", "tpp", "nimble", "hemem"} {
		v := Norm(RunOne("silo", p, Ratio1to8, cfg), base)
		if memtis <= v {
			t.Errorf("memtis %.3f not ahead of %s %.3f on silo 1:8", memtis, p, v)
		}
	}
}

func TestShapeBtreeSplitReclaimsBloat(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := shortCfg()
	cfg.Accesses = 2_000_000
	full := RunOne("btree", "memtis", Ratio1to8, cfg)
	ns := RunOne("btree", "memtis-ns", Ratio1to8, cfg)
	if full.VM.Splits == 0 {
		t.Fatal("no splits on btree")
	}
	if full.RSSFinal >= ns.RSSFinal {
		t.Fatalf("split did not reduce RSS: %d vs %d", full.RSSFinal, ns.RSSFinal)
	}
}

func TestShapeFig2HeMemHotSetMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := shortCfg()
	series, _, err := Parallel(0).Fig2(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if s.Workload != "pagerank" {
			continue
		}
		// HeMem's classified hot set stays far below the fast tier.
		var maxHot uint64
		for _, p := range s.Points {
			if p.HotBytes > maxHot {
				maxHot = p.HotBytes
			}
		}
		if maxHot > s.FastBytes/2 {
			t.Fatalf("pagerank hot set %d not well below fast %d", maxHot, s.FastBytes)
		}
	}
}

func TestShapeFig3UtilizationContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := shortCfg()
	cfg.Accesses = 2_500_000 // utilization needs enough samples per page
	data, _, err := Parallel(0).Fig3(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib := hotUtilizations(data["liblinear"])
	silo := hotUtilizations(data["silo"])
	if len(lib) == 0 || len(silo) == 0 {
		t.Fatal("missing utilization samples")
	}
	if median(lib) <= 2.5*median(silo) {
		t.Fatalf("hot-page utilization contrast missing: liblinear %.0f vs silo %.0f",
			median(lib), median(silo))
	}
	// Silo's hot pages use only a small fraction of their subpages.
	if median(silo) > 0.25*tier.SubPages {
		t.Fatalf("silo hot utilization %.0f too high", median(silo))
	}
}

func TestShapeFig1CPUTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	cfg := shortCfg()
	res, _, err := Parallel(0).Fig1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatal("expected 3 DAMON configs")
	}
	fine := res[2] // 5ms-10K-20K
	if fine.CPU < 5*res[0].CPU || fine.CPU < 5*res[1].CPU {
		t.Fatalf("accurate config not CPU-expensive: %+v", res)
	}
	if fine.Accuracy <= res[0].Accuracy || fine.Accuracy <= res[1].Accuracy {
		t.Fatalf("accurate config not most accurate: %+v", res)
	}
}
