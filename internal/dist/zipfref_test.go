package dist

import (
	"math"
	"math/rand"
)

// This file keeps the rejection-inversion Zipf sampler as it was before
// the guide table, verbatim apart from the names, as the naive reference
// the differential tests in guide_test.go hold the guided Zipf to: the
// same values from the same *rand.Rand draws, rejections included.

type refZipf struct {
	rng              *rand.Rand
	n                uint64
	s                float64
	oneMinusS        float64
	hIntegralX1      float64
	hIntegralNumElem float64
	sDiv             float64
}

func newRefZipf(rng *rand.Rand, s float64, n uint64) *refZipf {
	if n < 1 {
		n = 1
	}
	if s <= 0 {
		s = 0.01
	}
	z := &refZipf{rng: rng, n: n, s: s, oneMinusS: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNumElem = z.hIntegral(float64(n) + 0.5)
	z.sDiv = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *refZipf) hIntegral(x float64) float64 {
	lx := math.Log(x)
	if math.Abs(z.oneMinusS) < 1e-12 {
		return lx
	}
	return refHelper2(z.oneMinusS*lx) * lx
}

func (z *refZipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *refZipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	if math.Abs(z.oneMinusS) < 1e-12 {
		return math.Exp(x)
	}
	return math.Exp(refHelper1(t) * x)
}

func refHelper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

func refHelper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

func (z *refZipf) Next() uint64 {
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
