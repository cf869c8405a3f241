package dist

import (
	"math"
	"testing"
)

// Property tests for the bounded Zipf sampler across the two exponents
// the workload models actually use — YCSB's s=0.99 and the hotter
// s=1.2 — over several seeds: range safety, monotone rank frequencies
// and head-mass agreement with the analytic CDF.

var propSeeds = []int64{1, 7, 42, 1234, 987654321}

// zipfCDF returns the analytic probability mass of the top k ranks out
// of n: H(k)/H(n) with H(m) = sum_{j=1..m} 1/j^s.
func zipfCDF(s float64, k, n int) float64 {
	var hk, hn float64
	for j := 1; j <= n; j++ {
		t := 1 / math.Pow(float64(j), s)
		hn += t
		if j <= k {
			hk += t
		}
	}
	return hk / hn
}

func TestZipfPropertySamplesInRange(t *testing.T) {
	for _, s := range []float64{0.99, 1.2} {
		for _, seed := range propSeeds {
			for _, n := range []uint64{1, 2, 17, 1000, 1 << 20} {
				z := NewZipf(NewRand(seed), s, n)
				for i := 0; i < 2000; i++ {
					if v := z.Next(); v >= n {
						t.Fatalf("s=%v seed=%d n=%d: sample %d out of [0, n)", s, seed, n, v)
					}
				}
			}
		}
	}
}

func TestZipfPropertyRankFrequenciesNonIncreasing(t *testing.T) {
	const n = 64
	const draws = 300_000
	for _, s := range []float64{0.99, 1.2} {
		for _, seed := range propSeeds {
			z := NewZipf(NewRand(seed), s, n)
			counts := make([]float64, n)
			for i := 0; i < draws; i++ {
				counts[z.Next()]++
			}
			// Adjacent ranks may tie within sampling noise; allow a
			// 4-sigma Poisson slack, but never a clear inversion.
			for i := 0; i+1 < n; i++ {
				slack := 4 * math.Sqrt(counts[i]+1)
				if counts[i+1] > counts[i]+slack {
					t.Fatalf("s=%v seed=%d: rank %d drew %v > rank %d's %v (+%v slack)",
						s, seed, i+1, counts[i+1], i, counts[i], slack)
				}
			}
			// Decade-spaced ranks must strictly decrease — no slack
			// needed where the analytic gap is large.
			for _, pair := range [][2]int{{0, 8}, {8, 32}, {0, 63}} {
				if counts[pair[0]] <= counts[pair[1]] {
					t.Fatalf("s=%v seed=%d: rank %d (%v) not above rank %d (%v)",
						s, seed, pair[0], counts[pair[0]], pair[1], counts[pair[1]])
				}
			}
		}
	}
}

func TestZipfPropertyHeadMassMatchesCDF(t *testing.T) {
	const n = 1000
	const draws = 200_000
	for _, s := range []float64{0.99, 1.2} {
		for _, seed := range propSeeds {
			z := NewZipf(NewRand(seed), s, n)
			counts := make([]uint64, n)
			for i := 0; i < draws; i++ {
				counts[z.Next()]++
			}
			cum := uint64(0)
			rank := 0
			for _, k := range []int{1, 10, 100, n} {
				for ; rank < k; rank++ {
					cum += counts[rank]
				}
				got := float64(cum) / draws
				want := zipfCDF(s, k, n)
				if got < want*0.92 || got > want*1.08 {
					t.Fatalf("s=%v seed=%d: top-%d mass %.4f, analytic %.4f", s, seed, k, got, want)
				}
			}
			if cum != draws {
				t.Fatalf("s=%v seed=%d: counted %d of %d draws", s, seed, cum, draws)
			}
		}
	}
}
