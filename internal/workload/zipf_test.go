package workload

import (
	"math/rand"
	"testing"
)

// TestZipfMatchesRandZipf checks every Zipf sampler the eight models
// build, plus n = 1, 2, 3, against rand.Zipf: same values from the same
// seed, and the same number of draws from the shared generator.
func TestZipfMatchesRandZipf(t *testing.T) {
	type params struct {
		s float64
		n uint64
	}
	cases := map[params]bool{{1.15, 1}: true, {1.25, 2}: true, {1.45, 3}: true}
	zipfBuilt = func(s float64, n uint64) { cases[params{s, n}] = true }
	defer func() { zipfBuilt = nil }()
	var seen int
	for _, w := range All() {
		w.Stream(machineFor(w.Spec(), 1), 0)
		if len(cases) == seen {
			t.Fatalf("%s built no Zipf sampler", w.Name())
		}
		seen = len(cases)
	}
	for p := range cases {
		ref, got := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
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
