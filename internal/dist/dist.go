// Package dist provides the random index distributions used to build
// synthetic memory workloads: a bounded Zipf sampler valid for any
// exponent s > 0 (the standard library's rand.Zipf requires s > 1, but
// YCSB's canonical skew is s = 0.99), uniform and sequential helpers
// sharing one interface, StdZipf, which draws rand.Zipf's value stream,
// and Rand, math/rand's generator as a concrete type. Both Zipf samplers
// resolve most draws from a guide table that every sampler of the same
// distribution in the process shares (guide.go), and return exactly the
// values and draw counts of their plain Exp/Log inversion.
package dist

import (
	"math"

	"memtis/internal/fastmod"
)

// Source draws indexes in [0, N).
type Source interface {
	Next() uint64
	N() uint64
}

// Zipf samples k in [0, n) with probability proportional to
// 1/(k+1)^s, for any s > 0, using Gray's rejection-inversion method
// (the same approach as YCSB's ZipfianGenerator): O(1) per sample with
// no per-element tables, so footprints of millions of pages cost
// nothing to set up. A guide table shared by every sampler of the same
// (s, n) settles most draws without the inversion's Exp and Log1p.
type Zipf struct {
	rng              *Rand
	t                *table
	n                uint64
	s                float64
	oneMinusS        float64
	hIntegralX1      float64
	hIntegralNumElem float64
	sDiv             float64
}

// NewZipf builds a bounded Zipf sampler over [0, n).
func NewZipf(rng *Rand, s float64, n uint64) *Zipf {
	if n < 1 {
		n = 1
	}
	if s <= 0 {
		s = 0.01
	}
	z := &Zipf{rng: rng, n: n, s: s, oneMinusS: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNumElem = z.hIntegral(float64(n) + 0.5)
	z.sDiv = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

// hIntegral is the antiderivative of 1/x^s.
func (z *Zipf) hIntegral(x float64) float64 {
	lx := math.Log(x)
	if math.Abs(z.oneMinusS) < 1e-12 {
		return lx
	}
	return helper2(z.oneMinusS*lx) * lx
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	if math.Abs(z.oneMinusS) < 1e-12 {
		return math.Exp(x)
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a stable series near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x with a stable series near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next implements Source.
func (z *Zipf) Next() uint64 {
	for {
		if k, ok := z.step(z.rng.Float64()); ok {
			return k
		}
	}
}

// step turns one Float64 draw into a value, or reports a rejection.
func (z *Zipf) step(r float64) (uint64, bool) {
	if z.t == nil {
		z.t = tables.get(tableKey{family: 'g', s: math.Float64bits(z.s), n: z.n}, z)
	}
	if k, ok := z.t.lookup(r); ok {
		return k, true
	}
	u := z.hIntegralNumElem + r*(z.hIntegralX1-z.hIntegralNumElem)
	x := z.hIntegralInv(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	}
	if k > float64(z.n) {
		k = float64(z.n)
	}
	if k-x <= z.sDiv || u >= z.hIntegral(k+0.5)-z.h(k) {
		return uint64(k) - 1, true
	}
	return 0, false
}

// invert implements family. x = w^γ with w = 1 + (1-s)u = x^(1-s) and
// γ = 1/(1-s), or e^u at s = 1 (where w = 1), for u affine in r; as
// γ(1-s) = 1, γ(γ-1)(γ-2)((1-s)du/dr)³ = s(2s-1)(du/dr)³. The rounding
// error of x is dominated by u's, about 2^-52 of u's span, which
// dx/du = x/w magnifies, and by the Log1p/Exp pair's, a few units in
// the last place of x times |ln x| < 64; the margin keeps a factor of
// about 10^6 above both.
func (z *Zipf) invert(r float64) node {
	d := z.hIntegralX1 - z.hIntegralNumElem
	u := z.hIntegralNumElem + r*d
	x := z.hIntegralInv(u)
	w := 1 + z.oneMinusS*u
	span := math.Abs(z.hIntegralNumElem) + math.Abs(d)
	return node{x: x, margin: 1e-9 * (math.Abs(x) + 1) * (64 + span/w), d3: math.Abs(z.s*(2*z.s-1)*d*d*d) * x / (w * w * w)}
}

// accepts implements family with Next's second test.
func (z *Zipf) accepts(k, r float64) bool {
	u := z.hIntegralNumElem + r*(z.hIntegralX1-z.hIntegralNumElem)
	return u >= z.hIntegral(k+0.5)-z.h(k)
}

// shape implements family: Next clamps k to [1, n] and returns k-1.
func (z *Zipf) shape() shape {
	return shape{squeeze: z.sDiv, kmin: 1, kmax: float64(z.n), koff: -1}
}

// N implements Source.
func (z *Zipf) N() uint64 { return z.n }

// Uniform draws uniformly from [0, n).
type Uniform struct {
	rng *Rand
	n   uint64
	mod fastmod.M
}

// NewUniform builds a uniform sampler over [0, n).
func NewUniform(rng *Rand, n uint64) *Uniform {
	if n < 1 {
		n = 1
	}
	return &Uniform{rng: rng, n: n, mod: fastmod.New(n)}
}

// Next implements Source.
func (u *Uniform) Next() uint64 { return u.mod.Mod(u.rng.Uint64()) }

// N implements Source.
func (u *Uniform) N() uint64 { return u.n }

// Sequential sweeps [0, n) cyclically.
type Sequential struct {
	n   uint64
	cur uint64
}

// NewSequential builds a cyclic sweep over [0, n).
func NewSequential(n uint64) *Sequential {
	if n < 1 {
		n = 1
	}
	return &Sequential{n: n}
}

// Next implements Source.
func (s *Sequential) Next() uint64 {
	v := s.cur
	if s.cur++; s.cur == s.n {
		s.cur = 0
	}
	return v
}

// N implements Source.
func (s *Sequential) N() uint64 { return s.n }

// Scrambled wraps a Source with a multiplicative hash so that "low
// index = hot" distributions scatter across the whole range, the way
// hash-distributed heaps place hot records (YCSB's scrambled Zipfian).
type Scrambled struct {
	src Source
	mod fastmod.M
}

// NewScrambled scatters the wrapped source's indexes.
func NewScrambled(src Source) *Scrambled { return &Scrambled{src: src, mod: fastmod.New(src.N())} }

// Next implements Source.
func (sc *Scrambled) Next() uint64 {
	k := sc.src.Next()
	// Fibonacci hashing (offset so index 0 scatters too), folded into
	// the range.
	return sc.mod.Mod((k + 1) * 11400714819323198485)
}

// N implements Source.
func (sc *Scrambled) N() uint64 { return sc.src.N() }
