package bench

import (
	"context"
	"encoding/json"
	"testing"

	"memtis/internal/scenario"
)

// smokeSeeds are TestScenarioSmokeSweep's hunt seeds. Seeds 0..9 match
// the fuzz corpus; 10/11/13/14/17/24/27 fill in the HuntShape
// combinations (depth 2-4 with and without benefit admission and the
// background mover) the first ten under-cover, so together they cover
// all twelve.
var smokeSeeds = []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 17, 24, 27}

// TestScenarioSmokeSweep is the deterministic scenario sweep make
// check runs: the listed hunt seeds must pass every conformance
// invariant, and running each twice must produce byte-identical
// results — the fixed-seed reproducibility the nightly fuzz job's
// failure messages depend on.
func TestScenarioSmokeSweep(t *testing.T) {
	type shape struct {
		depth          int
		admission, mov bool
	}
	covered := map[shape]bool{}
	for _, seed := range smokeSeeds {
		d, a, m, _ := HuntShape(seed)
		covered[shape{d, a, m}] = true
	}
	for d := 2; d <= 4; d++ {
		for _, a := range []bool{false, true} {
			for _, m := range []bool{false, true} {
				if !covered[shape{d, a, m}] {
					t.Errorf("no smoke seed has depth=%d admission=%t mover=%t", d, a, m)
				}
			}
		}
	}
	for _, seed := range smokeSeeds {
		seed := seed
		t.Run(scenario.Generate(seed).Name, func(t *testing.T) {
			t.Parallel()
			first, err := HuntScenario(seed, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range first.Violations {
				t.Error(v)
			}
			second, err := HuntScenario(seed, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			a, err := json.Marshal(first)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(second)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("hunt seed %d is not deterministic:\n%s\nvs\n%s", seed, a, b)
			}
		})
	}
}

// TestHuntParamsDeterministic pins that the (policy, ratio) pairing is
// a pure function of the seed and stays inside the registries.
func TestHuntParamsDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		p1, r1 := HuntParams(seed)
		p2, r2 := HuntParams(seed)
		if p1 != p2 || r1 != r2 {
			t.Fatalf("seed %d: HuntParams not deterministic", seed)
		}
		if !KnownPolicy(p1) {
			t.Fatalf("seed %d: unknown policy %q", seed, p1)
		}
	}
}

// TestScenarioMatrixDeterminism pins that a parallel scenario-matrix
// fan-out over a shared compiled Runner is cell-for-cell identical to
// the sequential reference, exactly like the workload matrix.
func TestScenarioMatrixDeterminism(t *testing.T) {
	scs := []*scenario.Runner{
		scenario.MustCompile(scenario.Generate(5), scenario.Options{}),
		scenario.MustCompile(scenario.Generate(7), scenario.Options{}),
	}
	cfg := DefaultConfig()
	cfg.Accesses = 20_000
	ratios := []Ratio{Ratio1to8}
	pols := []string{"memtis", "static", "autonuma"}
	seq, err := Sequential().RunScenarioMatrix(context.Background(), cfg, scs, ratios, pols)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Parallel(8).RunScenarioMatrix(context.Background(), cfg, scs, ratios, pols)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != len(scs)*len(ratios)*len(pols) {
		t.Fatalf("matrix has %d cells", len(seq.Cells))
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		if a.Workload != b.Workload || a.Ratio != b.Ratio || a.Policy != b.Policy {
			t.Fatalf("cell %d order mismatch: %+v vs %+v", i, a, b)
		}
		if a.Value != b.Value || a.Result.AppNS != b.Result.AppNS {
			t.Fatalf("cell %d (%s/%s/%s) diverged: %v vs %v",
				i, a.Workload, a.Ratio, a.Policy, a.Value, b.Value)
		}
	}
}
