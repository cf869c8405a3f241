// Package dist provides the random index distributions used to build
// synthetic memory workloads: a bounded Zipf sampler valid for any
// exponent s > 0 (the standard library's rand.Zipf requires s > 1, but
// YCSB's canonical skew is s = 0.99), uniform and sequential helpers
// sharing one interface, and StdZipf, which draws rand.Zipf's value
// stream at about half its cost.
package dist

import (
	"math"
	"math/rand"
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
// nothing to set up.
type Zipf struct {
	rng              *rand.Rand
	n                uint64
	s                float64
	oneMinusS        float64
	hIntegralX1      float64
	hIntegralNumElem float64
	sDiv             float64
}

// NewZipf builds a bounded Zipf sampler over [0, n).
func NewZipf(rng *rand.Rand, s float64, n uint64) *Zipf {
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
		u := z.hIntegralNumElem + z.rng.Float64()*(z.hIntegralX1-z.hIntegralNumElem)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDiv || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// N implements Source.
func (z *Zipf) N() uint64 { return z.n }

// Uniform draws uniformly from [0, n).
type Uniform struct {
	rng *rand.Rand
	n   uint64
}

// NewUniform builds a uniform sampler over [0, n).
func NewUniform(rng *rand.Rand, n uint64) *Uniform {
	if n < 1 {
		n = 1
	}
	return &Uniform{rng: rng, n: n}
}

// Next implements Source.
func (u *Uniform) Next() uint64 { return u.rng.Uint64() % u.n }

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
	s.cur = (s.cur + 1) % s.n
	return v
}

// N implements Source.
func (s *Sequential) N() uint64 { return s.n }

// Scrambled wraps a Source with a multiplicative hash so that "low
// index = hot" distributions scatter across the whole range, the way
// hash-distributed heaps place hot records (YCSB's scrambled Zipfian).
type Scrambled struct {
	src Source
}

// NewScrambled scatters the wrapped source's indexes.
func NewScrambled(src Source) *Scrambled { return &Scrambled{src: src} }

// Next implements Source.
func (sc *Scrambled) Next() uint64 {
	k := sc.src.Next()
	// Fibonacci hashing (offset so index 0 scatters too), folded into
	// the range.
	return ((k + 1) * 11400714819323198485) % sc.src.N()
}

// N implements Source.
func (sc *Scrambled) N() uint64 { return sc.src.N() }
