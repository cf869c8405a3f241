package dist

import (
	"math/rand"

	"memtis/internal/fastmod"
)

// Rand is math/rand's additive lagged Fibonacci source (the generator
// behind rand.NewSource) as a concrete type, so the workload generators
// draw through inlinable methods instead of the *rand.Rand interface
// chain. NewRand(seed) starts in exactly rand.NewSource(seed)'s state,
// and each method returns the value the same-named *rand.Rand method
// would from the same state, consuming the same draws: swapping one for
// the other moves no simulated byte. Rand implements rand.Source64, so
// rand.New(r) serves the rest of *rand.Rand from the same state. A Rand
// is not safe for concurrent use.
type Rand struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// rngCooked is math/rand's seeding table (unexported there). Seeding
// XORs it into a Lehmer sequence; init recovers it from one seeded
// standard source, so Seed reproduces rand.NewSource's state for every
// seed without copying the table.
var rngCooked [rngLen]int64

func init() {
	src := rand.NewSource(1).(rand.Source64)
	// The first rngLen draws overwrite every element of the register
	// once, at the feed positions rngLen-rngTap-1, ..., 0, rngLen-1, ...,
	// rngLen-rngTap: after them the register is exactly the outputs.
	// Each draw added the then-current tap element to its feed element,
	// and feed never equals tap, so subtracting in reverse order
	// restores the freshly seeded register.
	var r Rand
	feed := func(i int) int { return (2*rngLen - rngTap - 1 - i) % rngLen }
	for i := 0; i < rngLen; i++ {
		r.vec[feed(i)] = int64(src.Uint64())
	}
	for i := rngLen - 1; i >= 0; i-- {
		r.vec[feed(i)] -= r.vec[rngLen-1-i]
	}
	// Seeding 1 with a zero table leaves just the Lehmer part.
	var lehmer Rand
	lehmer.Seed(1)
	for i := range rngCooked {
		rngCooked[i] = r.vec[i] ^ lehmer.vec[i]
	}
}

var _ rand.Source64 = (*Rand)(nil)

// NewRand returns a Rand in rand.NewSource(seed)'s state.
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// seedrand is x[n+1] = 48271 * x[n] mod (2**31 - 1), as math/rand seeds.
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed implements rand.Source: the generator takes rand.NewSource(seed)'s
// state. Seeds are folded modulo 2^31-1, as math/rand folds them.
func (r *Rand) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			r.vec[i] = u ^ rngCooked[i]
		}
	}
}

// Uint64 implements rand.Source64.
func (r *Rand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint32 is (*rand.Rand).Uint32.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Float64 is (*rand.Rand).Float64: a value in [0, 1), drawing again in
// the one case the division rounds up to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Int31n is (*rand.Rand).Int31n for n > 0. A power of two needs no
// special case: its threshold accepts every draw, and the remainder is
// the mask rand.Rand applies.
func (r *Rand) Int31n(n int32) int32 {
	for {
		// Int31 is bits 32-62 of the draw; the bound is Int31n's
		// rejection threshold.
		if v := int32(r.Uint64() << 1 >> 33); v <= int32max-int32((1<<31)%uint32(n)) {
			return v % n
		}
	}
}

// Shuffle permutes p as rand.New(r).Shuffle(len(p), swap) would with
// a swap of p's elements, from the same draws: Fisher-Yates from the
// top, each index drawn by Lemire's multiply-and-reject, as Shuffle's
// int31n draws it. len(p) must be below 2^31.
func (r *Rand) Shuffle(p []uint32) {
	for i := len(p) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(r.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			for thresh := -n % n; low < thresh; low = uint32(prod) {
				prod = uint64(r.Uint32()) * uint64(n)
			}
		}
		j := prod >> 32
		p[i], p[j] = p[j], p[i]
	}
}

// Intn is (*rand.Rand).Intn prepared for one bound: its rejection
// threshold and an exact multiply-based remainder are computed once, so
// a draw returns Intn's value from Intn's draws without a divide.
type Intn struct {
	// shift takes Int31's top 31 bits for a bound below 2^31 (Intn
	// calls Int31n there) and all 63 otherwise (Int63n).
	shift uint
	max   uint64
	mod   fastmod.M
}

// NewIntn prepares draws from [0, n) for n > 0.
func NewIntn(n int) Intn {
	if n <= int32max {
		return Intn{shift: 32, max: uint64(int32max - (1<<31)%uint32(n)), mod: fastmod.New(uint64(n))}
	}
	return Intn{max: uint64(rngMask - (1<<63)%uint64(n)), mod: fastmod.New(uint64(n))}
}

// Draw returns r.Intn(n)'s next value for the prepared n.
func (b *Intn) Draw(r *Rand) int {
	for {
		if v := uint64(r.Int63()) >> b.shift; v <= b.max {
			return int(b.mod.Mod(v))
		}
	}
}

// SplitMix64 returns the SplitMix64 output for state x (Steele et al.,
// "Fast splittable pseudorandom number generators"): x advanced by the
// golden-gamma increment, then the bijective avalanche finalizer, so
// distinct inputs never collide. Seed derivation folds inputs through
// it, a counter fed to it is a counter-mode generator, and a sequence
// generator steps its state by the same increment:
// x := s; s += 0x9e3779b97f4a7c15; return SplitMix64(x).
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FNV1a is the 64-bit FNV-1a hash of s: how seed derivation folds a
// name (a workload, a policy, a tenant) into a seed.
func FNV1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
