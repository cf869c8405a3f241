// Translation micro-benchmarks: Access is called once per simulated
// memory access, so its hit path is the tightest inner loop in the
// repository after the machine core itself. Benchmarked per path —
// resident hits, capacity misses, and huge-page hits — so a regression
// in one shows up undiluted by the others, plus the multi-tenant mix
// that spreads lookups over every set.
package tlb

import (
	"math/rand"
	"testing"
)

// benchVPNs precomputes a probe sequence so RNG cost stays out of the
// measured loop. stride spaces consecutive probes; span bounds the
// footprint in pages.
func benchVPNs(span, stride uint64) []uint64 {
	vpns := make([]uint64, 1<<12)
	for i := range vpns {
		vpns[i] = (uint64(i) * stride) % span
	}
	return vpns
}

func BenchmarkAccessHit(b *testing.B) {
	tl := New(Config{})
	// Footprint well under the 1536-entry capacity: steady state is
	// all hits.
	vpns := benchVPNs(1024, 7)
	for _, v := range vpns {
		tl.Access(v, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Access(vpns[i&(len(vpns)-1)], false)
	}
}

func BenchmarkAccessMiss(b *testing.B) {
	tl := New(Config{})
	// Footprint 16x capacity with a large stride: essentially every
	// probe walks.
	vpns := benchVPNs(16*1536, 1031)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Access(vpns[i&(len(vpns)-1)], false)
	}
}

func BenchmarkAccessHugeHit(b *testing.B) {
	tl := New(Config{})
	// 256 huge pages resident; probes spread across their subpages.
	vpns := benchVPNs(256*512, 509)
	for _, v := range vpns {
		tl.Access(v, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Access(vpns[i&(len(vpns)-1)], true)
	}
}

// BenchmarkAccessTagged probes Zipf-skewed pages of 64 address spaces
// through their space-tagged VPNs (space << 40, as sim.SpaceTagShift
// tags them), the pattern of a many-tenant run: every set sees lookups,
// so the sets' cache footprint shows, which the three single-space
// benchmarks above keep cache-resident.
func BenchmarkAccessTagged(b *testing.B) {
	const spaces, pages = 64, 1 << 12
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, pages-1)
	vpns := make([]uint64, 1<<16)
	for i := range vpns {
		vpns[i] = uint64(rng.Intn(spaces))<<40 | zipf.Uint64()
	}
	tl := New(Config{})
	for _, v := range vpns {
		tl.Access(v, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Access(vpns[i&(len(vpns)-1)], false)
	}
}
