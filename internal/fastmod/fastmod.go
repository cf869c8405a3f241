// Package fastmod computes exact multiply-based 64-bit remainders
// (Lemire's direct-remainder construction widened to a 128-bit
// reciprocal). Several simulator hot loops reduce a value into a
// runtime-sized span — TLB set indexing, synthetic access streams —
// and on those paths the hardware 64-bit divider is the single most
// expensive instruction. Precomputing ceil(2^128/d) once per divisor
// turns each reduction into three widening multiplies, and a
// power-of-two divisor into one mask, with a result bit-identical to
// the % operator for every 64-bit input, so swapping it in can never
// change simulated behaviour (the equivalence goldens pin this).
package fastmod

import "math/bits"

// M computes n % d for a fixed divisor d: with a mask when d is a
// power of two, otherwise via a precomputed 128-bit reciprocal. The
// zero value is invalid; build with New.
type M struct {
	hi, lo uint64 // ceil(2^128 / d), as a 128-bit fixed-point fraction
	d      uint64
	mask   uint64 // d-1 when d > 1 is a power of two, else 0
}

// New prepares the reduction for divisor d (d >= 1).
func New(d uint64) M {
	// ceil(2^128 / d) == floor((2^128 - 1) / d) + 1: long 128/64
	// division of all-ones, then a 128-bit increment.
	qhi, r := bits.Div64(0, ^uint64(0), d)
	qlo, _ := bits.Div64(r, ^uint64(0), d)
	lo, carry := bits.Add64(qlo, 1, 0)
	f := M{hi: qhi + carry, lo: lo, d: d}
	if d&(d-1) == 0 {
		f.mask = d - 1
	}
	return f
}

// Mod returns n % d for the divisor the reduction was built for.
func (f M) Mod(n uint64) uint64 {
	if f.mask != 0 {
		return n & f.mask
	}
	// frac = (M * n) mod 2^128 — the fractional part of n/d scaled to
	// 128 bits — then n % d = floor(frac * d / 2^128).
	fhi, flo := bits.Mul64(f.lo, n)
	fhi += f.hi * n
	q1, q0 := bits.Mul64(fhi, f.d)
	p1, _ := bits.Mul64(flo, f.d)
	_, carry := bits.Add64(q0, p1, 0)
	return q1 + carry
}
