package dist

import (
	"math"
	"math/rand"
)

// StdZipf draws math/rand.Zipf's value stream: the same k from the same
// Float64 draws of the same *rand.Rand, rejections included, so it is a
// drop-in replacement wherever a seeded run must stay byte-identical.
// It is a copy of rand.NewZipf's constants and rand.(*Zipf).Uint64's
// loop behind a guide table that skips the Exp/Log inversion for most
// draws.
//
// Each draw r selects bucket j = floor(r*B) of B = 2^14 buckets. On its
// first use a bucket evaluates the exact inversion at both ends of
// [j/B, (j+1)/B] and widens that interval by a margin far above the
// floating-point error of the inversion. If every x in the widened
// interval rounds to the same k and is accepted outright (k-x <= s, or
// the bucket's least ur passes the second test), the bucket stores k;
// otherwise it is marked exact and its draws run the standard
// library's arithmetic on the same r. The true inverse is monotone and
// math.Exp/math.Log are within an ulp or two, so every r in a stored
// bucket yields that k in the standard library's code too: the value
// stream and the number of draws are unchanged. A bucket can hold a
// single k only if k's mass is at least 1/B, so stored k stay below B
// and fit in a uint16.
type StdZipf struct {
	r            *rand.Rand
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	// margin is the relative widening of a bucket's x interval.
	margin float64
	// guide holds, per bucket, k+1 for a stored k, guideExact, or 0
	// when the bucket has not been evaluated yet. Allocated on the
	// first draw, so building a sampler costs nothing.
	guide *[guideSize]uint16
}

const (
	guideSize  = 1 << 14
	guideExact = math.MaxUint16
)

func (z *StdZipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *StdZipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// NewStdZipf returns a sampler of k in [0, imax] with P(k) proportional
// to (v+k)^-s, drawing from r exactly as rand.NewZipf(r, s, v, imax)
// would. Like rand.NewZipf it requires s > 1 and v >= 1 and returns nil
// otherwise.
func NewStdZipf(r *rand.Rand, s float64, v float64, imax uint64) *StdZipf {
	z := new(StdZipf)
	if s <= 1.0 || v < 1 {
		return nil
	}
	z.r = r
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	// The inversion's relative error grows with 1/(s-1), its
	// condition number; the margin keeps a factor of about 1e6 above it.
	z.margin = 1e-9 * (1 + math.Abs(z.oneminusQinv))
	return z
}

// Uint64 returns the next value of rand.(*Zipf).Uint64's stream.
func (z *StdZipf) Uint64() uint64 {
	if z.guide == nil {
		z.guide = new([guideSize]uint16)
	}
	for {
		r := z.r.Float64() // r on [0,1)
		// r < 1, so the mask changes nothing but drops the bounds check.
		j := int(r*guideSize) & (guideSize - 1)
		g := z.guide[j]
		if g == 0 {
			g = z.fill(j)
		}
		if g != guideExact {
			return uint64(g - 1)
		}
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// fill evaluates bucket j and records its guide entry.
func (z *StdZipf) fill(j int) uint16 {
	// The same expression as a draw's, so ur rounds the same. ur falls
	// as r grows, so ur1 is the least ur of any draw in the bucket.
	ur0 := z.hxm + float64(j)/guideSize*z.hx0minusHxm
	ur1 := z.hxm + float64(j+1)/guideSize*z.hx0minusHxm
	x0, x1 := z.hinv(ur0), z.hinv(ur1)
	lo, hi := math.Min(x0, x1), math.Max(x0, x1)
	lo -= z.margin * (math.Abs(lo) + 1)
	hi += z.margin * (math.Abs(hi) + 1)
	g := uint16(guideExact)
	// NaN fails every comparison and leaves the bucket exact. A draw
	// with k-x > s is still accepted when its ur passes the second
	// test; that holds for the whole bucket if it holds for ur1.
	if k := math.Floor(lo + 0.5); k >= 0 && k < guideSize && math.Floor(hi+0.5) == k &&
		(k-lo <= z.s || ur1 >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q)) {
		g = uint16(k) + 1
	}
	z.guide[j] = g
	return g
}
