package tensor

import (
	"math"
	"math/bits"
	"testing"
)

// randSplit cuts v into segments at random boundaries (possibly none,
// possibly single-element segments) so the view tests sweep segment
// boundaries landing anywhere relative to the SIMD unroll widths.
func randSplit(rng *RNG, v []float32) [][]float32 {
	var segs [][]float32
	lo := 0
	for lo < len(v) {
		w := 1 + rng.Intn(len(v)-lo)
		if rng.Intn(4) == 0 {
			w = 1 + rng.Intn(7) // force short, odd-length segments too
			if lo+w > len(v) {
				w = len(v) - lo
			}
		}
		segs = append(segs, v[lo:lo+w])
		lo += w
	}
	return segs
}

func TestVecViewReductionsMatchFlat(t *testing.T) {
	rng := NewRNG(21)
	for _, n := range simdLens {
		flat := randVec(rng, n)
		for trial := 0; trial < 8; trial++ {
			v := NewVecView(randSplit(rng, flat)...)
			if v.Len() != n {
				t.Fatalf("n=%d: view len %d", n, v.Len())
			}
			if got, want := v.Sum(), Sum(flat); got != want {
				t.Fatalf("n=%d: Sum %v != %v", n, got, want)
			}
			if got, want := v.Norm2(), Norm2(flat); got != want {
				t.Fatalf("n=%d: Norm2 %v != %v", n, got, want)
			}
			if v.HasNaNOrInf() {
				t.Fatalf("n=%d: HasNaNOrInf on finite input", n)
			}
			// SignedMeans: the segment is the unit of the reduction
			// specification, so only a single-segment view is the flat vector
			// bit for bit (TestVecViewSignedMeansMatchesSpecification holds a
			// multi-segment one to the specification's fold); here it must
			// stay within rounding of it.
			mp, mn, np := v.SignedMeans()
			fmp, fmn, fnp := SignedMeans(flat)
			if np != fnp {
				t.Fatalf("n=%d: nPos %d != %d", n, np, fnp)
			}
			if v.Contiguous() != nil {
				if mp != fmp || mn != fmn {
					t.Fatalf("n=%d: contiguous SignedMeans (%v,%v) != (%v,%v)", n, mp, mn, fmp, fmn)
				}
			} else if math.Abs(float64(mp-fmp)) > 1e-5 || math.Abs(float64(mn-fmn)) > 1e-5 {
				t.Fatalf("n=%d: SignedMeans (%v,%v) far from (%v,%v)", n, mp, mn, fmp, fmn)
			}
		}
	}
}

func TestVecViewCopyAXPYAddAt(t *testing.T) {
	rng := NewRNG(22)
	for _, n := range simdLens {
		if n == 0 {
			continue
		}
		flat := randVec(rng, n)
		backing := Clone(flat)
		v := NewVecView(randSplit(rng, backing)...)

		out := NewVec(n)
		v.CopyTo(out)
		for i := range out {
			if out[i] != flat[i] {
				t.Fatalf("CopyTo[%d] = %v, want %v", i, out[i], flat[i])
			}
		}
		for i := 0; i < n; i += 1 + n/7 {
			if v.At(i) != flat[i] {
				t.Fatalf("At(%d) = %v, want %v", i, v.At(i), flat[i])
			}
		}

		src := randVec(rng, n)
		a := rng.Float32() - 0.5
		want := Clone(flat)
		axpyScalar(want, a, src)
		v.AXPY(a, src)
		v.CopyTo(out)
		for i := range out {
			if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
				t.Fatalf("AXPY[%d] = %x, want %x", i, math.Float32bits(out[i]), math.Float32bits(want[i]))
			}
		}

		dst := randVec(rng, n)
		wantAdd := Clone(dst)
		addScalar(wantAdd, out)
		v.AddInto(dst)
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(wantAdd[i]) {
				t.Fatalf("AddInto[%d] = %x, want %x", i, math.Float32bits(dst[i]), math.Float32bits(wantAdd[i]))
			}
		}

		v.Zero()
		v.CopyFrom(flat)
		v.CopyTo(out)
		for i := range out {
			if out[i] != flat[i] {
				t.Fatalf("CopyFrom[%d] = %v, want %v", i, out[i], flat[i])
			}
		}

		// Scatter-add at random (possibly repeated) indices matches the flat
		// g[i] += x loop including duplicate accumulation order.
		wantSc := Clone(flat)
		for k := 0; k < 32; k++ {
			i := rng.Intn(n)
			x := rng.Float32() - 0.5
			wantSc[i] += x
			v.AddAt(i, x)
		}
		v.CopyTo(out)
		for i := range out {
			if math.Float32bits(out[i]) != math.Float32bits(wantSc[i]) {
				t.Fatalf("AddAt[%d] = %x, want %x", i, math.Float32bits(out[i]), math.Float32bits(wantSc[i]))
			}
		}
	}
}

func TestVecViewResetRecycles(t *testing.T) {
	v := NewVecView([]float32{1, 2}, nil, []float32{3})
	if v.Len() != 3 || len(v.Segments()) != 2 {
		t.Fatalf("empty segment not dropped: len=%d segs=%d", v.Len(), len(v.Segments()))
	}
	s := []float32{4, 5, 6}
	v.Reset1(s)
	if c := v.Contiguous(); &c[0] != &s[0] || v.Len() != 3 {
		t.Fatal("Reset1 must alias the given slice")
	}
	v.Reset1(nil)
	if v.Len() != 0 || v.Contiguous() != nil {
		t.Fatal("empty Reset1 must produce an empty view")
	}
}

func TestAbsIntoMatchesScalar(t *testing.T) {
	rng := NewRNG(23)
	for _, n := range simdLens {
		src := randVec(rng, n)
		if n > 2 {
			src[n/2] = float32(math.Copysign(0, -1)) // -0.0 → +0.0 under the mask
		}
		want := NewVec(n)
		absIntoScalar(want, src)
		got := NewVec(n)
		AbsInto(got, src)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: AbsInto[%d] = %x, scalar %x", n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestGaussTailSelectMatchesScalar(t *testing.T) {
	rng := NewRNG(24)
	for _, n := range simdLens {
		src := randVec(rng, n)
		mu := float64(rng.Float32()-0.5) * 0.1
		// tau near the distribution's edge so some — but few — elements pass.
		for _, tau := range []float64{0.5, 1.5, 3.9, 1e9} {
			want := make([]int32, n)
			nw := gaussTailScalar(want, src, 7, mu, tau)
			got := make([]int32, n)
			ng := GaussTailSelect(got, src, 7, mu, tau)
			if ng != nw {
				t.Fatalf("n=%d tau=%v: count %d != %d", n, tau, ng, nw)
			}
			for i := 0; i < ng; i++ {
				if got[i] != want[i] {
					t.Fatalf("n=%d tau=%v: idx[%d] %d != %d", n, tau, i, got[i], want[i])
				}
			}
		}
	}
	// NaN distances never select — both paths.
	src := make([]float32, 64)
	for i := range src {
		src[i] = float32(math.NaN())
	}
	if GaussTailSelect(make([]int32, 64), src, 0, 0, 0.5) != 0 {
		t.Fatal("NaN elements must not be selected")
	}
}

// refEliasPack writes gamma(level+1)+sign bit-by-bit MSB-first — the
// pre-batching reference semantics of the compress bit writer.
func refEliasPack(words []uint32, fields []uint32, bitPos uint64) uint64 {
	writeBit := func(b uint32) {
		if b != 0 {
			words[bitPos>>5] |= 1 << (31 - uint(bitPos&31))
		}
		bitPos++
	}
	for _, f := range fields {
		level := f >> 1
		v := level + 1
		n0 := bits.Len32(v) - 1
		for i := 0; i < n0; i++ {
			writeBit(0)
		}
		for i := n0; i >= 0; i-- {
			writeBit((v >> uint(i)) & 1)
		}
		if level > 0 {
			writeBit(f & 1)
		}
	}
	return bitPos
}

func TestEliasGammaSignPackMatchesReference(t *testing.T) {
	rng := NewRNG(25)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		fields := make([]uint32, n)
		for i := range fields {
			var level uint32
			switch rng.Intn(4) {
			case 0:
				level = 0
			case 1:
				level = uint32(rng.Intn(8))
			case 2:
				level = uint32(rng.Intn(1 << 10))
			default:
				level = uint32(rng.Intn(1<<15 - 1)) // max legal: level+1 < 1<<15
			}
			fields[i] = level<<1 | uint32(rng.Intn(2))
		}
		start := uint64(rng.Intn(97)) // arbitrary, unaligned stream offsets
		nw := int(start/32) + n + 4   // ≤ 31 bits per field + spare word
		want := make([]uint32, nw)
		got := make([]uint32, nw)
		endWant := refEliasPack(want, fields, start)
		endGot := EliasGammaSignPack(got, fields, start)
		if endGot != endWant {
			t.Fatalf("trial %d: end bit %d != %d", trial, endGot, endWant)
		}
		if bitsN := EliasGammaSignBits(fields); start+bitsN != endWant {
			t.Fatalf("trial %d: EliasGammaSignBits %d, stream grew %d", trial, bitsN, endWant-start)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: word[%d] = %08x, want %08x", trial, i, got[i], want[i])
			}
		}
	}
}

func FuzzEliasGammaSignPack(f *testing.F) {
	f.Add(uint16(0), uint16(1), uint16(77), uint8(3))
	f.Add(uint16(32766), uint16(12345), uint16(2), uint8(31))
	f.Fuzz(func(t *testing.T, a, b, c uint16, off uint8) {
		mk := func(x uint16) uint32 {
			level := uint32(x) % (1<<15 - 1)
			return level<<1 | uint32(x>>15)
		}
		fields := []uint32{mk(a), mk(b), mk(c)}
		start := uint64(off) % 64
		nw := int(start/32) + len(fields) + 4
		want := make([]uint32, nw)
		got := make([]uint32, nw)
		endWant := refEliasPack(want, fields, start)
		if endGot := EliasGammaSignPack(got, fields, start); endGot != endWant {
			t.Fatalf("end bit %d != %d", endGot, endWant)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("word[%d] = %08x, want %08x", i, got[i], want[i])
			}
		}
	})
}
