package tensor

import (
	"math"
	"math/big"
	"testing"
)

// fmaBig is FMA32's definition: x·y + z computed exactly with math/big and
// rounded once to float32, to nearest with ties to even. The non-finite
// cases and the sign of an exact zero follow IEEE 754 (a zero sum is +0
// unless both addends are −0).
type fmaBig struct{ x, y, p, z, s big.Float }

func (b *fmaBig) fma(x, y, z float32) float32 {
	fx, fy, fz := float64(x), float64(y), float64(z)
	if math.IsNaN(fx) || math.IsNaN(fy) || math.IsNaN(fz) ||
		math.IsInf(fx, 0) || math.IsInf(fy, 0) || math.IsInf(fz, 0) {
		// Inf·0, Inf − Inf and NaN operands give NaN, every other case a
		// signed infinity: float64 arithmetic decides both exactly.
		return float32(fx*fy + fz)
	}
	// 2¹⁰ bits hold every sum of a float32 product (exponents −298…256,
	// 48 significand bits) and a float32 (−149…128) exactly.
	for _, f := range []*big.Float{&b.x, &b.y, &b.p, &b.z, &b.s} {
		f.SetPrec(1024)
	}
	b.x.SetFloat64(fx)
	b.y.SetFloat64(fy)
	b.z.SetFloat64(fz)
	b.p.Mul(&b.x, &b.y)
	b.s.Add(&b.p, &b.z)
	if b.s.Sign() == 0 {
		if b.p.Signbit() && b.z.Signbit() {
			return float32(math.Copysign(0, -1))
		}
		return 0
	}
	r, _ := b.s.Float32()
	return r
}

// fmaNaive is the form FMA32 replaces: one float64 fused multiply-add (the
// sum rounded to 53 bits) and then a float32 conversion, two roundings.
func fmaNaive(x, y, z float32) float32 {
	return float32(math.FMA(float64(x), float64(y), float64(z)))
}

func checkFMA(t *testing.T, b *fmaBig, x, y, z float32) {
	t.Helper()
	want := b.fma(x, y, z)
	if got := FMA32(x, y, z); !sameBits(got, want) {
		t.Fatalf("FMA32(%#08x, %#08x, %#08x) = %#08x (%v), exact %#08x (%v)",
			math.Float32bits(x), math.Float32bits(y), math.Float32bits(z),
			math.Float32bits(got), got, math.Float32bits(want), want)
	}
}

// FMA32 against the exact result on 2²⁰ random triples of each of five
// kinds: raw bit patterns (every exponent, subnormals, ±Inf and NaN);
// ordinary factors with z scaled to within 2³⁰ of the product, where the
// sum's low bits decide the rounding; z the negated float32 product a few
// ulps off, which cancels; products in the subnormal range; and triples
// built as fmaMidpoints' normal rows are, x·y = ±½ulp(z)·(1 − 2⁻²ᵐ) for
// an odd z, on which the naive double rounding must fail.
func TestFMA32MatchesBig(t *testing.T) {
	n := 1 << 20
	if testing.Short() || raceEnabled {
		n = 1 << 16
	}
	rng := NewRNG(61)
	bits := func() float32 { return math.Float32frombits(uint32(rng.Uint64())) }
	sig := func(lo, hi int) float32 {
		s := math.Float32frombits(0x3f800000 | uint32(rng.Uint64())&0x7fffff | uint32(rng.Intn(2))<<31)
		return float32(math.Ldexp(float64(s), lo+rng.Intn(hi-lo+1)))
	}
	var b fmaBig
	for i := 0; i < n; i++ {
		checkFMA(t, &b, bits(), bits(), bits())

		x, y := sig(-20, 20), sig(-20, 20)
		checkFMA(t, &b, x, y, float32(math.Ldexp(float64(sig(0, 0)*x*y), rng.Intn(61)-30)))

		p := math.Float32bits(x * y)
		checkFMA(t, &b, x, y, -math.Float32frombits(p+uint32(rng.Intn(9))-4))

		checkFMA(t, &b, sig(-80, -60), sig(-80, -60), math.Float32frombits(uint32(rng.Intn(1<<24))|uint32(rng.Intn(2))<<31))

		// z = ±1.f·2ᴱ with an odd last bit, so ½ulp(z) = 2ᴱ⁻²⁴; m ≥ 15
		// puts the exact sum within 2⁻³⁰ of half an ulp from the midpoint,
		// closer than float64 resolves, and m ≤ 23 keeps 1 + 2⁻ᵐ a float32.
		e, m, e1 := rng.Intn(181)-80, 15+rng.Intn(9), rng.Intn(41)-20
		z := float32(math.Ldexp(float64(math.Float32frombits(0x3f800001|uint32(rng.Uint64())&0x7ffffe|uint32(rng.Intn(2))<<31)), e))
		x = float32(math.Ldexp(1+math.Ldexp(1, -m), e1))
		y = float32(math.Ldexp(1-math.Ldexp(1, -m), e-24-e1))
		if rng.Intn(2) == 0 {
			y = -y
		}
		if fmaNaive(x, y, z) == b.fma(x, y, z) {
			t.Fatalf("(%v, %v, %v): the naive double rounding is exact; the triple tests nothing", x, y, z)
		}
		checkFMA(t, &b, x, y, z)
	}
}

// fmaMidpoints are constructed triples whose exact result lies just off a
// float32 midpoint: z has an odd significand and x·y = ±½ulp(z)·(1 − δ)
// with 0 < δ < 2⁻³⁰, so rounding to float64 first lands on the midpoint
// itself and the float32 rounding then takes the tie to the even
// neighbour, the wrong one. Normal results, subnormal results (z ≥ 2⁻¹³²,
// so that float64 still rounds to the midpoint) and results at the top of
// the range; the last two rows sit on the overflow threshold, where the
// naive form gives ±Inf for ±MaxFloat32. TestFMA32Midpoints checks that
// the naive form fails every row.
var fmaMidpoints = [][3]uint32{
	{0x42800020, 0x49ffffc0, 0x5930ae39}, {0x3f000080, 0x92ffff00, 0x9ec0f28d}, {0x418000c0, 0xa9fffe80, 0xb841dcf1},
	{0x478000b0, 0x1dfffea0, 0xb25f297f}, {0x478000d0, 0x8a7ffe60, 0x9ee05d3f}, {0x46800032, 0x01ffff9c, 0x156db505},
	{0x337ffe60, 0x388000d0, 0x388870a3}, {0x3c80003f, 0x2c7fff82, 0xb5d4d421}, {0x3e00009f, 0x347ffec2, 0x3f72e70d},
	{0x3f800050, 0xc4ffff60, 0x51488b1d}, {0x137ffe40, 0x3d0000e0, 0x9d454053}, {0x3a8000c0, 0xc97ffe80, 0x509eca8b},
	{0x38000038, 0x3f7fff90, 0x44075f47}, {0xb3fffe10, 0x3f8000f8, 0xc03ad6a3}, {0x467fff5e, 0x40000051, 0xd30ddc1f},
	{0x857ffe40, 0x438000e0, 0x1582fb5d}, {0xcf7ffe80, 0x480000c0, 0xe47ea847}, {0x48000080, 0xb8ffff00, 0x4db853c7},
	{0x3c000044, 0x247fff78, 0x2d085675}, {0x40000080, 0x417fff00, 0xce7fab21}, {0x5dffff10, 0x37800078, 0x621178f7},
	{0x83ffff00, 0x48000080, 0x18c6b2bb}, {0x3a0000c0, 0xd9fffe80, 0xe086ba89}, {0x5d7fff2e, 0x36000069, 0x603d8acd},
	{0x31ffff54, 0x45000056, 0xc3e66151}, {0xe77ffec0, 0x398000a0, 0xedfb9427}, {0x3a0000c0, 0x687ffe80, 0xef51e09b},
	{0x44800080, 0x567fff00, 0x6794da93}, {0x4800004a, 0x25ffff6c, 0x3ac696f1}, {0x5b7ffe1c, 0x418000f2, 0x69c47e93},
	{0x3d800040, 0x2d7fff80, 0x37e71945}, {0x46800084, 0x9a7ffef8, 0x2da0ab15}, {0x35800040, 0x4a7fff80, 0xccbd2e1d},
	{0x4afffe40, 0x378000e0, 0xcf6a95cb}, {0x378000d0, 0x187ffe60, 0x9caf0f23}, {0x3a000090, 0x95fffee0, 0x1c985d83},
	{0x64ffff96, 0x38800035, 0xea5f17f3}, {0x067ffec0, 0x418000a0, 0x948e0785}, {0x48000080, 0xb47fff00, 0x49015f7b},
	{0xcbfffe80, 0x3f0000c0, 0x57c805bf}, {0x1a000020, 0x19ffffc0, 0x001132e7}, {0x1a000020, 0x99ffffc0, 0x801bc71f},
	{0x1a000020, 0x19ffffc0, 0x80113b31}, {0x1a000020, 0x19ffffc0, 0x000dca89}, {0x1a000020, 0x99ffffc0, 0x80219a3b},
	{0x1a000020, 0x99ffffc0, 0x0028a4b3}, {0x1a000020, 0x19ffffc0, 0x8038042d}, {0x1a000020, 0x99ffffc0, 0x80387db5},
	{0x1a000020, 0x99ffffc0, 0x8039d551}, {0x1a000020, 0x99ffffc0, 0x802c704f}, {0x1a000020, 0x99ffffc0, 0x8041cd59},
	{0x1a000020, 0x99ffffc0, 0x800ec533}, {0x1a000020, 0x99ffffc0, 0x00141669}, {0x1a000020, 0x19ffffc0, 0x00129461},
	{0x1a000020, 0x99ffffc0, 0x8026baa9}, {0x1a000020, 0x19ffffc0, 0x80369255}, {0x59800020, 0x58ffffc0, 0x7f45af69},
	{0x59800020, 0x58ffffc0, 0x7f03c6bb}, {0x59800020, 0xd8ffffc0, 0xff2c069b}, {0x59800020, 0xd8ffffc0, 0xff008c8f},
	{0x59800020, 0xd8ffffc0, 0x7f48bf19}, {0x59800020, 0xd8ffffc0, 0x7f6c1ca9}, {0x59800020, 0xd8ffffc0, 0x7f197071},
	{0x59800020, 0xd8ffffc0, 0xff7ecf11},
	{0x59800020, 0x58ffffc0, 0x7f7fffff}, {0xd9800020, 0x58ffffc0, 0xff7fffff},
}

func TestFMA32Midpoints(t *testing.T) {
	var b fmaBig
	for _, r := range fmaMidpoints {
		x, y, z := math.Float32frombits(r[0]), math.Float32frombits(r[1]), math.Float32frombits(r[2])
		if got, want := fmaNaive(x, y, z), b.fma(x, y, z); sameBits(got, want) {
			t.Errorf("row %#08x: the naive double rounding gives the exact %v; the row tests nothing", r, want)
		}
		checkFMA(t, &b, x, y, z)
	}
}

// The IEEE corner cases, each spelled out: signed zeros, subnormal and
// underflowing results, overflow to ±Inf (and a sum that comes back from
// a product above float32's range), Inf − Inf, Inf·0 and NaN operands.
func TestFMA32Specials(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	maxF, tiny := float32(math.MaxFloat32), math.Float32frombits(1)
	cases := []struct {
		x, y, z, want float32
	}{
		{0, 0, 0, 0},
		{negZero, 0, 0, 0},
		{negZero, 0, negZero, negZero},
		{0, 0, negZero, 0},
		{negZero, negZero, negZero, 0},
		{1, 2, -2, 0}, // exact cancellation is +0
		{-1, 2, 2, 0},
		{1.5, 0.5, negZero, 0.75},
		{tiny, 0.5, 0, 0},           // 2⁻¹⁵⁰: the tie rounds to even, +0
		{-tiny, 0.5, 0, negZero},    // … keeping the sign
		{tiny, 0.75, 0, tiny},       // 0.75·2⁻¹⁴⁹ rounds up to 2⁻¹⁴⁹
		{tiny, 1.5, 0, 2 * tiny},    // 1.5·2⁻¹⁴⁹: the tie rounds to even
		{0x1p-74, 0x1p-75, 0, tiny}, // normal factors, a subnormal result
		{0x1p-74, 0x1p-74, -tiny, tiny},
		{0x1p-80, 0x1p-80, 1, 1}, // a product below half an ulp of z
		{-0x1p-80, 0x1p-80, 1, 1},
		{maxF, 2, 0, inf},
		{maxF, -2, 0, -inf},
		{maxF, 1, maxF, inf},
		{maxF, 2, -maxF, maxF}, // the product alone overflows float32
		{0x1p100, 0x1p100, -0x1p127, inf},
		{inf, 1, -inf, nan},
		{inf, 0, 1, nan},
		{0, -inf, 1, nan},
		{inf, -1, 5, -inf},
		{1, 1, inf, inf},
		{-1, 1, -inf, -inf},
		{nan, 1, 1, nan},
		{1, nan, 1, nan},
		{1, 1, nan, nan},
		{nan, 0, inf, nan},
	}
	var b fmaBig
	for _, c := range cases {
		if got := FMA32(c.x, c.y, c.z); !sameBits(got, c.want) {
			t.Errorf("FMA32(%v, %v, %v) = %v (%#08x), want %v (%#08x)", c.x, c.y, c.z, got, math.Float32bits(got), c.want, math.Float32bits(c.want))
		}
		if oracle := b.fma(c.x, c.y, c.z); !sameBits(oracle, c.want) {
			t.Errorf("the exact oracle gives %v for (%v, %v, %v), the table %v", oracle, c.x, c.y, c.z, c.want)
		}
	}
}
