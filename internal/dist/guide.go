package dist

import (
	"math"
	"sync"
	"unsafe"
)

// Guide tables: the engine that lets both Zipf samplers skip their
// Exp/Log inversion on most draws while returning exactly what that
// inversion returns.
//
// Both samplers turn a uniform draw r in [0, 1) into x by inverting a
// hat integral, round k = floor(x+½), and accept k outright when
// k-x <= s (the squeeze s is a per-distribution constant); otherwise a
// second test on the same r decides, and a rejected draw draws again.
// A draw r picks bucket j = floor(r·B) of B = 2^14. A table holds, per
// bucket, either
//
//   - a stored value: the sampler inverts both bucket ends by its own
//     arithmetic, widens that x interval by its margin (about 10^6
//     times the arithmetic's floating-point error), and stores k when
//     the whole interval rounds to one k and is accepted outright
//     (k-x <= s, or the second test passes at the bucket's least
//     argument, which bounds every draw in the bucket). The exact
//     inverse is monotone, so every r in the bucket yields that k; or
//   - an interpolant: the quadratic p through the sampler's x at the
//     bucket's start, midpoint and end, in the local coordinate
//     t = r·B - j, with an error bound e such that |p(t) - x| <= e for
//     the x the sampler computes from every r in the bucket.
//
// A draw in an interpolated bucket evaluates x̃ = p(t). When x̃ lies
// more than e inside the part of its rounding cell that the first test
// accepts (x̃+½-k in (max(0, ½-s) + e, 1 - e)), the sampler's own
// arithmetic would round to the same k and accept it, so the draw
// returns k. Otherwise it runs that arithmetic on the same r, so
// rejections draw again exactly as before, and the value stream and the
// number of draws are those of the sampler without a table. A k settled
// this way is never one the rejection inversion clamps to [1, n]: it is
// the rounding of a computed x, and those lie in [½, n+½].
//
// The bound e has three terms:
//
//   - The interpolation remainder. In both families x + v = (α + βr)^γ
//     with α + βr > 0 (v = 1 for rand.Zipf's, 0 for the rejection
//     inversion's; exp(α + βr) at s = 1), so
//     d³x/dr³ = γ(γ-1)(γ-2)β³(x+v)/(α+βr)³, whose magnitude is monotone
//     in r and peaks at a bucket end. Quadratic interpolation at
//     t = 0, ½, 1 errs by at most max|d³x/dt³|·max|t(t-½)(t-1)|/3!
//     = max|d³x/dr³|/(B³·72√3).
//   - 1.25 times the largest margin at the three nodes. The node values
//     are the sampler's computed x, each within its margin's 10^-6 of
//     the exact inverse; the Lebesgue constant of three equispaced
//     nodes is 1.25, and the draw's own computed x adds one more such
//     error, which the 1.25 covers many times over.
//   - The rounding of the stored coefficients (c2 is a float32) and of
//     the evaluation, bounded generously in rounding units.
//
// Each term carries slack far above the rounding of the draw-time
// comparisons. A bucket whose bound cannot settle any draw (e >= ½, or
// NaN anywhere) gets e = +Inf, so its draws always run the arithmetic.
//
// A table is a pure function of the sampler's family and exact
// parameters, so every sampler of one distribution in the process
// shares one, built on the distribution's first draw and read-only
// after. Stored values are below B, as a single k can fill a bucket
// only when its mass is at least 1/B.

const (
	guideSize = 1 << 14
	// tableBudget bounds the bytes of tables the process keeps shared.
	// A distribution first drawn past it builds a private table.
	tableBudget = 64 << 20
)

// table is one distribution's guide table.
type table struct {
	// guide holds a bucket's stored value (below guideSize) or
	// guideSize plus the index of its interpolant.
	guide  [guideSize]uint16
	interp []interp
	// low is max(0, ½-s): where in a rounding cell the first
	// acceptance test starts to accept.
	low float64
}

// interp is one bucket's interpolant y(t) = c0 + c1·t + c2·t², where
// y = x + ½ + koff, so floor(y) is the value a draw returns, and its
// error bound e.
type interp struct {
	c0, c1 float64
	c2, e  float32
}

// lookup returns draw r's value when the table settles it.
func (t *table) lookup(r float64) (uint64, bool) {
	rb := r * guideSize
	j := int(rb)
	// r < 1, so the mask changes nothing but drops the bounds check.
	g := t.guide[j&(guideSize-1)]
	if g < guideSize {
		return uint64(g), true
	}
	p := &t.interp[g-guideSize]
	u := rb - float64(j) // exact: r·B is exact and j its integer part
	y := p.c0 + u*(p.c1+u*float64(p.c2))
	k := math.Floor(y)
	f, e := y-k, float64(p.e)
	return uint64(k), f > e+t.low && f < 1-e
}

// bytes is the table's heap footprint.
func (t *table) bytes() int {
	return int(unsafe.Sizeof(*t)) + len(t.interp)*int(unsafe.Sizeof(interp{}))
}

// family is what building a table needs from a sampler.
type family interface {
	// invert returns the x a draw r computes, by the sampler's own
	// arithmetic, with its margin and |d³x/dr³| at r.
	invert(r float64) node
	// accepts reports whether k passes the sampler's second acceptance
	// test for the draw r.
	accepts(k, r float64) bool
	// shape returns the distribution's rounding and acceptance shape.
	shape() shape
}

// node is the inversion at one draw r.
type node struct {
	// x is what the sampler's arithmetic computes; margin bounds its
	// distance from the exact inverse about 10^6 times over.
	x, margin float64
	// d3 is |d³x/dr³| of the exact inverse.
	d3 float64
}

// shape is what a table needs to know about a sampler's rounding.
type shape struct {
	// squeeze is s: k-x <= s accepts k outright.
	squeeze float64
	// kmin and kmax bound the k a draw returns as rounded, unclamped.
	kmin, kmax float64
	// koff turns k into the value a draw returns (-1 for 1-based k).
	koff float64
}

// build evaluates every bucket of f's table in one pass over the bucket
// edges, then fits the interpolants into a slice of exact size,
// inverting each edge a run of interpolated buckets shares once.
func build(f family) *table {
	sh := f.shape()
	t := &table{low: max(0, 0.5-sh.squeeze)}
	n := 0
	a := f.invert(0)
	for j := range t.guide {
		r1 := float64(j+1) / guideSize
		b := f.invert(r1)
		lo, hi := a.x-a.margin, b.x+b.margin
		if a.x > b.x {
			lo, hi = b.x-b.margin, a.x+a.margin
		}
		// NaN fails every comparison and leaves the bucket to an
		// interpolant, whose bound is then infinite. r1 bounds the
		// second test's argument over the bucket.
		k := math.Floor(lo + 0.5)
		if k >= sh.kmin && k <= sh.kmax && k+sh.koff < guideSize && math.Floor(hi+0.5) == k &&
			(k-lo <= sh.squeeze || f.accepts(k, r1)) {
			t.guide[j] = uint16(k + sh.koff)
		} else {
			t.guide[j] = guideSize
			n++
		}
		a = b
	}
	t.interp = make([]interp, 0, n)
	end := -1 // the edge b was inverted at
	var b node
	for j, g := range t.guide {
		if g != guideSize {
			continue
		}
		a := b
		if end != j {
			a = f.invert(float64(j) / guideSize)
		}
		m := f.invert((float64(j) + 0.5) / guideSize)
		b, end = f.invert(float64(j+1)/guideSize), j+1
		t.guide[j] = guideSize + uint16(len(t.interp))
		t.interp = append(t.interp, fit(a, m, b, sh.koff))
	}
	return t
}

// fit builds the interpolant through a bucket's start, midpoint and
// end, and its bound (see the guide-table notes above).
func fit(a, m, b node, koff float64) interp {
	d1, d2 := m.x-a.x, b.x-m.x
	c0, c1, c2 := a.x+0.5+koff, 3*d1-d2, 2*(d2-d1)
	const (
		b3      = guideSize * guideSize * guideSize
		f32unit = 0x1p-24
		slack   = 0x1p-48 // 32 float64 rounding units
	)
	remainder := max(a.d3, b.d3) / (b3 * 72 * math.Sqrt(3))
	nodes := 1.25 * max(a.margin, m.margin, b.margin)
	rounding := f32unit*math.Abs(c2) + slack*(math.Abs(c0)+math.Abs(c1)+math.Abs(c2)+math.Abs(d1)+math.Abs(d2)+1)
	e := remainder + nodes + rounding
	e32 := float32(math.Inf(1))
	if e < 0.5 {
		// Round up, so the stored bound is never below e.
		if e32 = float32(e); float64(e32) < e {
			e32 = math.Nextafter32(e32, e32+1)
		}
	}
	return interp{c0: c0, c1: c1, c2: float32(c2), e: e32}
}

// tableKey names a distribution: its family and exact parameters, the
// floats by their bits, so even a NaN names one distribution.
type tableKey struct {
	family byte
	s, v   uint64
	n      uint64
}

// tableCache shares tables process-wide within a byte budget.
type tableCache struct {
	mu     sync.Mutex
	m      map[tableKey]*tableEntry
	bytes  int
	budget int
}

type tableEntry struct {
	once sync.Once
	t    *table
}

var tables = &tableCache{budget: tableBudget}

// get returns key's shared table, building it from f on first use; a
// distribution first asked for past the budget gets a private table.
// Concurrent callers for one key wait for a single build.
func (c *tableCache) get(key tableKey, f family) *table {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		if c.bytes >= c.budget {
			c.mu.Unlock()
			return build(f)
		}
		if c.m == nil {
			c.m = make(map[tableKey]*tableEntry)
		}
		e = new(tableEntry)
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.t = build(f)
		c.mu.Lock()
		c.bytes += e.t.bytes()
		c.mu.Unlock()
	})
	return e.t
}
