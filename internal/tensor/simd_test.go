package tensor

import (
	"math"
	"testing"
)

// randVec fills a vector with a mix of magnitudes, signs and exact zeros so
// the kernel comparisons exercise rounding, sign handling and the clamp path.
func randVec(rng *RNG, n int) Vec {
	v := NewVec(n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = float32(math.Copysign(1e-30, float64(rng.Float64()-0.5)))
		default:
			v[i] = (rng.Float32() - 0.5) * 8
		}
	}
	return v
}

// kernel lengths to cover: below simdMinLen, odd tails for every unroll
// width, and a large block.
var simdLens = []int{0, 1, 3, 4, 7, 15, 16, 17, 31, 64, 100, 1023, 4096}

func TestAddMatchesScalar(t *testing.T) {
	rng := NewRNG(11)
	for _, n := range simdLens {
		dst := randVec(rng, n)
		src := randVec(rng, n)
		want := Clone(dst)
		addScalar(want, src)
		Add(dst, src)
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: Add[%d] = %x, scalar %x", n, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestAXPYMatchesScalar(t *testing.T) {
	rng := NewRNG(12)
	for _, n := range simdLens {
		dst := randVec(rng, n)
		src := randVec(rng, n)
		a := rng.Float32() - 0.5
		want := Clone(dst)
		axpyScalar(want, a, src)
		AXPY(dst, a, src)
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: AXPY[%d] = %x, scalar %x", n, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestScaleMatchesScalar(t *testing.T) {
	rng := NewRNG(13)
	for _, n := range simdLens {
		v := randVec(rng, n)
		c := rng.Float32()*2 - 1
		want := Clone(v)
		scaleScalar(want, c)
		Scale(v, c)
		for i := range v {
			if math.Float32bits(v[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: Scale[%d] = %x, scalar %x", n, i, math.Float32bits(v[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestQuantizeFieldsMatchesScalar(t *testing.T) {
	rng := NewRNG(15)
	for _, levels := range []int{1, 4, 15} {
		for _, n := range simdLens {
			g := randVec(rng, n)
			norm := float32(Norm2(g))
			if norm == 0 {
				norm = 1
			}
			rnd := make([]float64, n)
			rng.Float64Vec(rnd)
			got := make([]uint32, n)
			want := make([]uint32, n)
			QuantizeFields(got, g, rnd, norm, levels)
			quantFieldsScalar(want, g, rnd, norm, levels)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("levels=%d n=%d: field[%d] = %#x, scalar %#x (x=%v rnd=%v)",
						levels, n, i, got[i], want[i], g[i], rnd[i])
				}
			}
		}
	}
}

// TestQuantizeFieldsClamp forces the promote-then-clamp corner: |x| == norm
// gives scaled == levels exactly; frac is 0 so no promotion, level stays at
// levels and the clamp must keep it there.
func TestQuantizeFieldsClamp(t *testing.T) {
	g := make([]float32, 32)
	rnd := make([]float64, 32)
	for i := range g {
		g[i] = 2.5
		if i%2 == 1 {
			g[i] = -2.5
		}
	}
	fields := make([]uint32, 32)
	QuantizeFields(fields, g, rnd, 2.5, 4)
	for i, f := range fields {
		wantSign := uint32(i % 2)
		if f != wantSign|4<<1 {
			t.Fatalf("field[%d] = %#x, want %#x", i, f, wantSign|4<<1)
		}
	}
}

func TestPackFields(t *testing.T) {
	rng := NewRNG(16)
	for _, bitsPer := range []uint{2, 3, 4, 5} {
		n := 257
		fields := make([]uint32, n)
		mask := uint32(1<<bitsPer) - 1
		for i := range fields {
			fields[i] = uint32(rng.Intn(int(mask) + 1))
		}
		words := make([]uint32, (n*int(bitsPer)+31)/32)
		// Pack in two irregular chunks to exercise the resumable offset.
		pos := PackFields(words, fields[:100], bitsPer, 0)
		end := PackFields(words, fields[100:], bitsPer, pos)
		if end != uint64(n)*uint64(bitsPer) {
			t.Fatalf("bitsPer=%d: end offset %d, want %d", bitsPer, end, n*int(bitsPer))
		}
		for i, f := range fields {
			bitPos := uint64(i) * uint64(bitsPer)
			w, off := bitPos/32, uint(bitPos%32)
			got := words[w] >> off
			if off+bitsPer > 32 && int(w+1) < len(words) {
				got |= words[w+1] << (32 - off)
			}
			if got&mask != f {
				t.Fatalf("bitsPer=%d: unpack[%d] = %#x, want %#x", bitsPer, i, got&mask, f)
			}
		}
	}
}

func TestWordViews(t *testing.T) {
	v := []float32{0, 1, -2.5, float32(math.Inf(1))}
	w := U32FromF32(v)
	for i := range v {
		if w[i] != math.Float32bits(v[i]) {
			t.Fatalf("U32FromF32[%d] = %#x, want %#x", i, w[i], math.Float32bits(v[i]))
		}
	}
	back := F32FromU32(w)
	for i := range v {
		if math.Float32bits(back[i]) != math.Float32bits(v[i]) {
			t.Fatalf("F32FromU32 round-trip[%d] mismatch", i)
		}
	}
	if WordsZeroCopy() {
		w[1] = math.Float32bits(42)
		if v[1] != 42 {
			t.Fatal("zero-copy word view does not alias")
		}
	}
	if U32FromF32(nil) != nil && len(U32FromF32(nil)) != 0 {
		t.Fatal("nil view not empty")
	}
}

func TestFloat64VecMatchesSequence(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	got := make([]float64, 100)
	a.Float64Vec(got)
	for i := range got {
		if want := b.Float64(); got[i] != want {
			t.Fatalf("Float64Vec[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// Every variant's means are the reduction specification's (means_test.go),
// bit for bit; the count must match the scalar rule exactly.
func TestSignedMeansKernelMatchesScalar(t *testing.T) {
	rng := NewRNG(77)
	for _, n := range simdLens {
		v := make([]float32, n)
		wideVec(rng, v)
		if n > 4 {
			v[1] = float32(math.Copysign(0, -1)) // -0.0 counts as non-negative
			v[3] = 0
		}
		np := 0
		for _, x := range v {
			if x >= 0 {
				np++
			}
		}
		wantP, wantN, wantNP := specView([][]float32{v})
		if wantNP != np {
			t.Fatalf("n=%d: the specification counts %d non-negative, the scalar rule %d", n, wantNP, np)
		}
		eachSignedVariant(t, func(name string) {
			mp, mn, gotNP := SignedMeans(v)
			if gotNP != np {
				t.Fatalf("%s n=%d: nPos = %d, want %d", name, n, gotNP, np)
			}
			if math.Float32bits(mp) != math.Float32bits(wantP) || math.Float32bits(mn) != math.Float32bits(wantN) {
				t.Fatalf("%s n=%d: means (%v,%v), want (%v,%v)", name, n, mp, mn, wantP, wantN)
			}
		})
	}
}

// refSignedShift is the rule SignedShift documents, written the slow way:
// a branch per element, each class's two operations spelled as the scalar
// A2SGD loops spelled them (add µ− / subtract µ̄−, no folded signs).
func refSignedShift(v []float32, subPos, subNeg, addPos, addNeg float32) {
	for i, x := range v {
		if x >= 0 {
			t := x - subPos
			v[i] = t + addPos
		} else {
			t := x + subNeg
			v[i] = t - addNeg
		}
	}
}

// sameF32 is bitwise equality with every NaN equal to every other: which
// payload an operation on NaN returns is the hardware's choice, not Go's.
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

var f32Specials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -1e-39,
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// checkSignedShift shifts v in place (so a caller's misalignment is the
// kernel's) with every variant and compares each with the reference.
func checkSignedShift(t *testing.T, v []float32, c [4]float32) {
	t.Helper()
	orig := Clone(v)
	want := Clone(v)
	refSignedShift(want, c[0], c[1], c[2], c[3])
	eachSignedVariant(t, func(name string) {
		copy(v, orig)
		SignedShift(v, c[0], c[1], c[2], c[3])
		for i := range v {
			if !sameF32(v[i], want[i]) {
				t.Fatalf("%s n=%d consts=%v: [%d] x=%v (%#x): got %#x, reference %#x",
					name, len(v), c, i, orig[i], math.Float32bits(orig[i]), math.Float32bits(v[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// Every length through the kernels' 16/8/4/1 blocks, at every 4-byte
// misalignment of a 32-byte line, with specials salted into random lanes, on
// every variant.
func TestSignedShiftMatchesReference(t *testing.T) {
	rng := NewRNG(31)
	lens := append([]int(nil), simdLens...)
	for n := 0; n <= 131; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		for off := 0; off < 8; off++ {
			v := lineOffset(n, off)
			copy(v, randVec(rng, n))
			for k := 0; k < n/5; k++ {
				v[rng.Intn(n)] = f32Specials[rng.Intn(len(f32Specials))]
			}
			c := [4]float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
			checkSignedShift(t, v, c)
		}
	}
}

// Every special as the element in every lane of a vector block, against
// ordinary and special constants (a NaN or infinite mean is what a gradient
// holding one produces).
func TestSignedShiftSpecials(t *testing.T) {
	consts := [][4]float32{
		{0.25, 0.5, 0.125, 0.75},
		{0, 0, 0, 0},
		{1e-39, 1e-39, 1e-40, 1e-40},
		{float32(math.Inf(1)), 1, 2, float32(math.Inf(1))},
		{float32(math.NaN()), 1, 2, 3},
		{1, 2, 3, float32(math.NaN())},
	}
	for _, c := range consts {
		for _, sp := range f32Specials {
			for lane := 0; lane < 47; lane++ {
				v := make([]float32, 47) // 16+16+8+4+1+1+1: every block of either kernel
				for i := range v {
					v[i] = float32(i%5) - 2
				}
				v[lane] = sp
				checkSignedShift(t, v, c)
			}
		}
	}
	for _, fill := range []float32{1.5, -1.5} { // one class empty
		v := make([]float32, 37)
		Fill(v, fill)
		checkSignedShift(t, v, consts[0])
	}
}

func TestVecViewSignedShiftMatchesFlat(t *testing.T) {
	rng := NewRNG(32)
	for _, n := range simdLens {
		flat := randVec(rng, n)
		want := Clone(flat)
		refSignedShift(want, 0.3, 0.7, 0.1, 0.9)
		NewVecView(randSplit(rng, flat)...).SignedShift(0.3, 0.7, 0.1, 0.9)
		for i := range flat {
			if !sameF32(flat[i], want[i]) {
				t.Fatalf("n=%d: [%d] = %v, reference %v", n, i, flat[i], want[i])
			}
		}
	}
}

// FuzzSignedShift feeds raw bit patterns — elements and constants — so the
// fuzzer reaches the NaN/Inf/denormal encodings directly.
func FuzzSignedShift(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0}, uint32(0x3e800000), uint32(0x3f000000), uint32(0x3e000000), uint32(0x3f400000))
	f.Add(make([]byte, 4*23), uint32(0), uint32(0x7f800000), uint32(0x80000000), uint32(1))
	f.Fuzz(func(t *testing.T, raw []byte, a, b, c, d uint32) {
		v := make([]float32, len(raw)/4)
		GetF32LE(v, raw[:4*len(v)])
		checkSignedShift(t, v, [4]float32{
			math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c), math.Float32frombits(d),
		})
	})
}
