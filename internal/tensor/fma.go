package tensor

import "math"

// FMA32 returns x·y + z rounded once to float32, to nearest with ties to
// even: IEEE 754's fusedMultiplyAdd on binary32, the one rounding per term
// of the Gemm specification ("Matrix products" in the package comment). It
// is the portable reference every GEMM kernel is held to, so it is written
// in plain float64 arithmetic that every target computes the same way:
//
//   - the product of two float32s is exact in float64 (24 + 24 significand
//     bits, exponents well inside float64's range);
//   - the sum is rounded to float64, and TwoSum recovers its exact error;
//   - an inexact sum is cut toward zero and its last bit set, which rounds
//     the exact value to odd at 53 bits;
//   - the float32 conversion rounds that once more, to 24 bits.
//
// A round to nearest at 53 bits followed by one at 24 can round twice: an
// exact value just off a float32 midpoint lands on the midpoint, and the
// second rounding takes the tie. Rounding to odd first keeps the sticky
// information in the last bit, so the second rounding is the correct one
// (Boldo & Melquiond, "Emulation of FMA and correctly rounded sums: proved
// algorithms using rounding to odd", IEEE Trans. Computers 57(4), 2008;
// it needs 53 ≥ 24 + 2). Signed zeros, subnormal results, overflow to
// ±Inf, Inf − Inf and NaN come out as the hardware instruction gives them.
//
// The product is exact, so a compiler that fused it into the sum would
// not change a bit; the explicit conversion keeps it from emitting a fused
// instruction anyway, so this function adds no site to the fused
// multiply-add count on targets that have one. The body sits at the Go
// inliner's budget: inlined, it keeps the portable kernel's accumulators in
// registers (≈ 1.6× the speed of a call per term).
func FMA32(x, y, z float32) float32 {
	w := float64(z)
	p := float64(float64(x) * float64(y))
	s := p + w
	// TwoSum (Knuth): s + e = p + w exactly, for finite s. A non-finite s
	// makes e NaN, which the test below rejects; an exact sum makes e 0.
	pv := s - w
	e := (p - pv) + (w - (s - pv))
	if e != 0 && e == e {
		// Round to odd: cut toward zero, which is one ulp down in
		// magnitude when s was rounded away from zero, that is when s and
		// e differ in sign (the sign bit of s·e, which may underflow but
		// keeps its sign), then set the last bit.
		s = math.Float64frombits(math.Float64bits(s) - math.Float64bits(s*e)>>63 | 1)
	}
	return float32(s)
}
