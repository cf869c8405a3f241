package dist

import (
	"math/bits"
	"math/rand"
	"testing"
)

// StdZipf must reproduce rand.Zipf bit for bit: the same values from
// the same draws, rejections included. Each check runs both samplers on
// sources with identical scripts and compares every value and the
// number of Int63 draws consumed so far.

// scriptSource replays a script of Int63 values, then continues with a
// seeded generator, counting every value it hands out.
type scriptSource struct {
	script []int64
	next   rand.Source
	draws  int
}

func newScriptSource(script []int64, seed int64) *scriptSource {
	return &scriptSource{script: script, next: rand.NewSource(seed)}
}

func (s *scriptSource) Int63() int64 {
	s.draws++
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.next.Int63()
}

func (s *scriptSource) Seed(int64) { panic("scriptSource: Seed") }

// checkSameStream draws until both scripts are consumed and at least
// minDraws values are out, failing on the first divergence.
func checkSameStream(t *testing.T, s float64, imax uint64, script []int64, seed int64, minDraws int) {
	t.Helper()
	refSrc, gotSrc := newScriptSource(script, seed), newScriptSource(script, seed)
	ref := rand.NewZipf(rand.New(refSrc), s, 1, imax)
	got := NewStdZipf(rand.New(gotSrc), s, 1, imax)
	for i := 0; i < minDraws || len(refSrc.script) > 0; i++ {
		want, have := ref.Uint64(), got.Uint64()
		if want != have || refSrc.draws != gotSrc.draws {
			t.Fatalf("s=%v imax=%d value %d: got %d after %d draws, rand.Zipf %d after %d draws",
				s, imax, i, have, gotSrc.draws, want, refSrc.draws)
		}
	}
}

// edgeScript returns Int63 values whose Float64 lands on every guide
// bucket edge j/B and on the two representable draws either side of it.
func edgeScript() []int64 {
	// Float64 rounds an Int63 above 2^53 to 53 bits, so a representable
	// neighbour is one rounding step away.
	step := func(v uint64) uint64 { return 1 << max(0, bits.Len64(v)-53) }
	var out []int64
	for j := uint64(0); j <= guideSize; j++ {
		edge := j << (63 - 14) // Float64 = edge / 2^63 = j/B
		for d := -2; d <= 2; d++ {
			v := edge
			switch {
			case d < 0 && edge >= uint64(-d)*step(edge-1):
				v = edge - uint64(-d)*step(edge-1)
			case d < 0:
				continue
			default:
				v = edge + uint64(d)*step(edge)
			}
			if v < 1<<63 {
				out = append(out, int64(v))
			}
		}
	}
	return out
}

// stdZipfCases covers the exponents the workload models use, at a
// range of sizes including the degenerate n = 1, 2, 3.
var stdZipfCases = []struct {
	s    float64
	imax uint64
}{
	{1.05, 0}, {1.15, 1}, {1.45, 2},
	{1.05, 4_999}, {1.15, 115_895}, {1.2, 60_000}, {1.25, 400_000},
	{1.3, 17}, {1.4, 2_048}, {1.45, 299},
}

func TestStdZipfBucketEdges(t *testing.T) {
	script := edgeScript()
	for _, c := range stdZipfCases {
		checkSameStream(t, c.s, c.imax, script, 1, 0)
	}
}

func TestStdZipfMatchesRandZipf(t *testing.T) {
	for _, c := range stdZipfCases {
		for _, seed := range []int64{1, 42} {
			checkSameStream(t, c.s, c.imax, nil, seed, 100_000)
		}
	}
}

func TestNewStdZipfRejectsLikeRandZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ s, v float64 }{{1, 1}, {0.99, 1}, {1.2, 0.5}} {
		if z := NewStdZipf(rng, c.s, c.v, 10); z != nil {
			t.Fatalf("NewStdZipf(s=%v, v=%v) = %v, want nil as rand.NewZipf", c.s, c.v, z)
		}
	}
}

// BenchmarkZipf compares the guide-table sampler with rand.Zipf on the
// Silo model's sampler: s = 1.15 over its heap pages at the default
// scale.
func BenchmarkZipf(b *testing.B) {
	const siloS, siloHeapPages = 1.15, 115_896
	b.Run("stdlib", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), siloS, 1, siloHeapPages-1)
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += z.Uint64()
		}
		sink = sum
	})
	// One sampler across b.N rounds: the reported round measures the
	// steady state, with the guide table's buckets already evaluated.
	guided := NewStdZipf(rand.New(rand.NewSource(1)), siloS, 1, siloHeapPages-1)
	b.Run("guided", func(b *testing.B) {
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += guided.Uint64()
		}
		sink = sum
	})
}

var sink uint64
