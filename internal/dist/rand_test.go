package dist

import (
	"math"
	"math/rand"
	"testing"
)

// randSeeds covers math/rand's seed folding: seeds are taken modulo
// 2^31-1, with 0 (and its multiples) mapped to a fixed seed.
var randSeeds = []int64{
	0, 1, 42, -7, 1 << 40,
	math.MaxInt32, 2 * math.MaxInt32, -3 * math.MaxInt32, math.MaxInt32 + 5,
}

// TestRandMatchesMathRand runs every Rand method interleaved with
// rand.New(r)'s Shuffle and Intn against a *rand.Rand from the same
// seed: the same values, and in step after every call, so the same
// number of draws.
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range randSeeds {
		ref, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		wrapped := rand.New(got)
		check := func(op string, i int, want, have any) {
			t.Helper()
			if want != have {
				t.Fatalf("seed %d step %d %s: got %v, math/rand %v", seed, i, op, have, want)
			}
		}
		for i := 0; i < 20_000; i++ {
			switch i % 8 {
			case 0:
				check("Uint64", i, ref.Uint64(), got.Uint64())
			case 1:
				check("Int63", i, ref.Int63(), got.Int63())
			case 2:
				check("Uint32", i, ref.Uint32(), got.Uint32())
			case 3:
				check("Float64", i, ref.Float64(), got.Float64())
			case 4:
				n := int32(1 + i%1000)
				if i%3 == 0 {
					n = 1 << (i % 31) // powers of two take Int31n's mask
				}
				check("Int31n", i, ref.Int31n(n), got.Int31n(n))
			case 5:
				n := 1 + i%5000
				check("Intn", i, ref.Intn(n), wrapped.Intn(n))
			case 6:
				a, b := make([]int, 1+i%40), make([]int, 1+i%40)
				for j := range a {
					a[j], b[j] = j, j
				}
				ref.Shuffle(len(a), func(x, y int) { a[x], a[y] = a[y], a[x] })
				wrapped.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
				for j := range a {
					check("Shuffle", i, a[j], b[j])
				}
			case 7:
				check("Float64 via rand.New", i, ref.Float64(), wrapped.Float64())
			}
		}
		got.Seed(seed + 1)
		ref.Seed(seed + 1)
		check("Int63 after Seed", 0, ref.Int63(), got.Int63())
	}
}

// TestIntnMatchesMathRand holds the prepared bound to (*rand.Rand).Intn
// for bounds on both sides of 2^31 (Int31n and Int63n), powers of two,
// and bounds whose rejection threshold rejects often.
func TestIntnMatchesMathRand(t *testing.T) {
	bounds := []int{
		1, 2, 3, 7, 100, 1000, 4096, 1 << 20, 3 << 29, math.MaxInt32 - 1, math.MaxInt32,
		math.MaxInt32 + 1, 1 << 40, 3 << 61, math.MaxInt64,
	}
	for _, seed := range randSeeds {
		ref, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		for _, n := range bounds {
			b := NewIntn(n)
			for i := 0; i < 2000; i++ {
				if want, have := ref.Intn(n), b.Draw(got); want != have {
					t.Fatalf("seed %d Intn(%d) draw %d: got %d, math/rand %d", seed, n, i, have, want)
				}
			}
			if ref.Int63() != got.Int63() {
				t.Fatalf("seed %d Intn(%d): generators out of step", seed, n)
			}
		}
	}
}

// TestShuffleMatchesMathRand holds Shuffle to rand.New(r).Shuffle over
// the same elements, up to Silo's heap of 113,000 pages: the same
// permutation, and the generators in step after it.
func TestShuffleMatchesMathRand(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ref, got := rand.New(NewRand(seed)), NewRand(seed)
		for _, n := range []int{0, 1, 2, 3, 17, 1000, 113_000} {
			want, have := make([]uint32, n), make([]uint32, n)
			for i := range want {
				want[i], have[i] = uint32(i), uint32(i)
			}
			ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			got.Shuffle(have)
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("seed %d n %d: element %d is %d, math/rand %d", seed, n, i, have[i], want[i])
				}
			}
			if ref.Int63() != got.Int63() {
				t.Fatalf("seed %d n %d: generators out of step", seed, n)
			}
		}
	}
}

// TestNewRandAllocates checks that seeding allocates only the generator.
func TestNewRandAllocates(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { sinkRand = NewRand(42) }); n != 1 {
		t.Fatalf("NewRand allocates %v times, want 1 (the generator)", n)
	}
}

var sinkRand *Rand

// TestSplitMix64FNV1aVectors pins both hashes to their published
// reference values: SplitMix64 seeded with 0 and 1, FNV-1a over "" and
// "a".
func TestSplitMix64FNV1aVectors(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"SplitMix64(0)", SplitMix64(0), 0xe220a8397b1dcdaf},
		{"SplitMix64(1)", SplitMix64(1), 0x910a2dec89025cc1},
		{`FNV1a("")`, FNV1a(""), 0xcbf29ce484222325},
		{`FNV1a("a")`, FNV1a("a"), 0xaf63dc4c8601ec8c},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
