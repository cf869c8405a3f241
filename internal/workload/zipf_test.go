package workload

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"memtis/internal/dist"
)

// modelZipfs is the list of model samplers dist's scripted tests hold
// to rand.Zipf bucket edge by bucket edge.
const modelZipfs = "../dist/testdata/model_zipfs.txt"

// TestZipfMatchesRandZipf checks every Zipf sampler the eight models
// build, plus n = 1, 2, 3, against rand.Zipf: same values from the same
// seed, and the same number of draws from the shared generator. The
// models' samplers must also be the ones modelZipfs lists.
func TestZipfMatchesRandZipf(t *testing.T) {
	type params struct {
		s float64
		n uint64
	}
	built := map[params]bool{}
	zipfBuilt = func(s float64, n uint64) { built[params{s, n}] = true }
	defer func() { zipfBuilt = nil }()
	var seen int
	for _, w := range All() {
		w.Stream(machineFor(w.Spec(), 1), 0)
		if len(built) == seen {
			t.Fatalf("%s built no Zipf sampler", w.Name())
		}
		seen = len(built)
	}
	listed := readModelZipfs(t)
	for p := range built {
		if !listed[fmt.Sprint(p.s, p.n)] {
			t.Errorf("a model builds Zipf(s=%v, n=%d), which %s does not list", p.s, p.n, modelZipfs)
		}
	}
	if len(listed) != len(built) {
		t.Errorf("%s lists %d samplers, the models build %d", modelZipfs, len(listed), len(built))
	}
	for _, p := range []params{{1.15, 1}, {1.25, 2}, {1.45, 3}} {
		built[p] = true
	}
	for p := range built {
		ref, got := rand.New(rand.NewSource(7)), dist.NewRand(7)
		zr, zg := rand.NewZipf(ref, p.s, 1, p.n-1), newZipf(got, p.s, p.n)
		for i := 0; i < 50_000; i++ {
			want, have := zr.Uint64(), zg.next()
			if want != have {
				t.Fatalf("s=%v n=%d draw %d: got %d, rand.Zipf %d", p.s, p.n, i, have, want)
			}
			// A rejection consumes an extra Float64; the generators
			// stay in step only if both consumed the same number.
			if a, b := ref.Int63(), got.Int63(); a != b {
				t.Fatalf("s=%v n=%d draw %d: generators diverged", p.s, p.n, i)
			}
		}
	}
}

// readModelZipfs returns modelZipfs's "s n" lines.
func readModelZipfs(t *testing.T) map[string]bool {
	f, err := os.Open(modelZipfs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			out[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
