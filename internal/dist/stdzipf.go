package dist

import "math"

// StdZipf draws math/rand.Zipf's value stream: the same k from the same
// Float64 draws of the same generator state, rejections included, so it
// is a drop-in replacement wherever a seeded run must stay
// byte-identical. It is a copy of rand.NewZipf's constants and
// rand.(*Zipf).Uint64's loop behind a guide table (guide.go) that skips
// the Exp/Log inversion for most draws.
type StdZipf struct {
	r            *Rand
	t            *table
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	// margin is the relative widening of an inverted x.
	margin float64
}

func (z *StdZipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *StdZipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// NewStdZipf returns a sampler of k in [0, imax] with P(k) proportional
// to (v+k)^-s, drawing from r exactly as rand.NewZipf(r, s, v, imax)
// would from a *rand.Rand in r's state. Like rand.NewZipf it requires
// s > 1 and v >= 1 and returns nil otherwise.
func NewStdZipf(r *Rand, s float64, v float64, imax uint64) *StdZipf {
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
	for {
		if k, ok := z.step(z.r.Float64()); ok {
			return k
		}
	}
}

// step turns one Float64 draw into a value, or reports a rejection.
func (z *StdZipf) step(r float64) (uint64, bool) {
	if z.t == nil {
		z.t = tables.get(tableKey{family: 's', s: math.Float64bits(z.q), v: math.Float64bits(z.v), n: math.Float64bits(z.imax)}, z)
	}
	if k, ok := z.t.lookup(r); ok {
		return k, true
	}
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return uint64(k), true
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
		return uint64(k), true
	}
	return 0, false
}

// invert implements family. x + v = w^γ with w = oneminusQ·ur and
// γ = 1/(1-q), for ur affine in r; as γ(1-q) = 1,
// γ(γ-1)(γ-2)((1-q)dur/dr)³ = q(2q-1)(dur/dr)³.
func (z *StdZipf) invert(r float64) node {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	w, d := z.oneminusQ*ur, z.hx0minusHxm
	return node{x: x, margin: z.margin * (math.Abs(x) + 1), d3: math.Abs(z.q*(2*z.q-1)*d*d*d) * (x + z.v) / (w * w * w)}
}

// accepts implements family with Uint64's second test.
func (z *StdZipf) accepts(k, r float64) bool {
	ur := z.hxm + r*z.hx0minusHxm
	return ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q)
}

// shape implements family: Uint64 returns k as rounded.
func (z *StdZipf) shape() shape {
	return shape{squeeze: z.s, kmin: 0, kmax: math.Inf(1)}
}
