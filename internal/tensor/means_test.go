package tensor

import (
	"math"
	"testing"
	"unsafe"
)

// The reduction specification of the package comment, written from its text
// as plain loops over blocks, groups, lanes and the halving tree — no kernel
// code, and its own copies of the two constants, so that changing meansLanes
// or meansBlock without changing the specification fails here.
const (
	specL = 8
	specB = 1 << 16
)

func specFold(l [specL]float64) float64 {
	for h := specL / 2; h >= 1; h /= 2 {
		for j := 0; j < h; j++ {
			l[j] = l[j] + l[j+h]
		}
	}
	return l[0]
}

// specSegment is the triple (Σ⁺, Σ⁻, n⁻) of one segment.
func specSegment(seg []float32) (sp, sn float64, nNeg int) {
	for lo := 0; lo < len(seg); lo += specB {
		blk := seg[lo:min(lo+specB, len(seg))]
		var lp, ln [specL]float64
		full := len(blk) / specL * specL
		for i := 0; i < full; i++ {
			if x := blk[i]; x >= 0 {
				lp[i%specL] += float64(x)
			} else {
				ln[i%specL] -= float64(x)
				nNeg++
			}
		}
		bp, bn := specFold(lp), specFold(ln)
		for _, x := range blk[full:] {
			if x >= 0 {
				bp += float64(x)
			} else {
				bn -= float64(x)
				nNeg++
			}
		}
		sp += bp
		sn += bn
	}
	return sp, sn, nNeg
}

// specView folds the per-segment triples ascending and takes the means.
func specView(segs [][]float32) (muPos, muNeg float32, nPos int) {
	var sp, sn float64
	n, nNeg := 0, 0
	for _, s := range segs {
		a, b, c := specSegment(s)
		sp += a
		sn += b
		nNeg += c
		n += len(s)
	}
	if n-nNeg > 0 {
		muPos = float32(sp / float64(n-nNeg))
	}
	if nNeg > 0 {
		muNeg = float32(sn / float64(nNeg))
	}
	return muPos, muNeg, n - nNeg
}

func TestSignedMeansConstantsMatchSpecification(t *testing.T) {
	if meansLanes != specL || meansBlock != specB || meansBlock%meansLanes != 0 {
		t.Fatalf("L = %d, B = %d; the specification says %d and %d", meansLanes, meansBlock, specL, specB)
	}
}

// sameF64 is bitwise equality with every NaN equal to every other.
func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// eachSignedVariant runs f with every compiled-in variant of the A2SGD
// kernels active in turn.
func eachSignedVariant(t *testing.T, f func(name string)) {
	t.Helper()
	defer func(v signedVariant) { signedActive = v }(signedActive)
	for _, v := range signedVariants() {
		signedActive = v
		f(v.name)
	}
}

// lineOffset returns n elements that start off floats past a 32-byte
// boundary.
func lineOffset(n, off int) []float32 {
	buf := make([]float32, n+16)
	pad := int((32-uintptr(unsafe.Pointer(&buf[0]))%32)%32) / 4
	return buf[pad+off : pad+off+n]
}

// wideVec fills v with random signs, mantissas and exponents over 40 binades,
// straight from integer draws: float64 sums of such values round at almost
// every step, so they tell one association order from another, and the bits
// are the same on every GOARCH (no libm, nothing a compiler may fuse).
func wideVec(rng *RNG, v []float32) {
	for i := range v {
		r := rng.Uint64()
		v[i] = math.Float32frombits(uint32(r>>63)<<31 | uint32(87+(r>>32)%41)<<23 | uint32(r)&(1<<23-1))
	}
}

var meansFills = []struct {
	name string
	fill func(rng *RNG, v []float32)
}{
	{"random", wideVec},
	{"all-positive", func(rng *RNG, v []float32) {
		for i := range v {
			v[i] = rng.Float32() + 0.25
		}
	}},
	{"all-negative", func(rng *RNG, v []float32) {
		for i := range v {
			v[i] = -rng.Float32() - 0.25
		}
	}},
	{"alternating", func(rng *RNG, v []float32) {
		for i := range v {
			v[i] = (rng.Float32() + 0.25) * float32(1-2*(i%2))
		}
	}},
	{"zeros-salted", func(rng *RNG, v []float32) {
		rng.NormVec(v, 0, 0.05)
		for i := range v {
			switch rng.Intn(4) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = float32(math.Copysign(0, -1))
			}
		}
	}},
	{"denormals", func(rng *RNG, v []float32) {
		for i := range v {
			v[i] = math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31)
		}
	}},
	{"max", func(rng *RNG, v []float32) {
		for i := range v {
			v[i] = []float32{math.MaxFloat32, -math.MaxFloat32, 1, -1e-3}[rng.Intn(4)]
		}
	}},
}

// TestSignedMeansMatchesSpecification: every variant's triple equals the
// specification's bit for bit — every length through four groups and a tail,
// the lengths around one and two blocks, random longer ones, at every 4-byte
// misalignment of a 32-byte line, for every fill.
func TestSignedMeansMatchesSpecification(t *testing.T) {
	rng := NewRNG(41)
	lens := []int{specB - 1, specB, specB + 1, 2*specB + specL + 3}
	for n := 0; n <= 4*specL+3; n++ {
		lens = append(lens, n)
	}
	for i := 0; i < 3; i++ {
		lens = append(lens, 2*specB+rng.Intn(3*specB))
	}
	for _, n := range lens {
		for off := 0; off < 8; off++ {
			v := lineOffset(n, off)
			for _, f := range meansFills {
				f.fill(rng, v)
				wp, wn, wc := specSegment(v)
				eachSignedVariant(t, func(name string) {
					sp, sn, c := signedSegment(v)
					if !sameF64(sp, wp) || !sameF64(sn, wn) || c != wc {
						t.Fatalf("%s n=%d off=%d %s: (%#x, %#x, %d), specification (%#x, %#x, %d)", name, n, off, f.name,
							math.Float64bits(sp), math.Float64bits(sn), c, math.Float64bits(wp), math.Float64bits(wn), wc)
					}
				})
			}
		}
	}
}

// TestSignedMeansClassOfSpecials: each special value in every position of
// four groups and a tail lands in the class Go's x >= 0 puts it in — NaN with
// the negatives, −0.0 with the non-negatives — on every variant: the count,
// and which of the two sums turns NaN or infinite, are the scalar loop's.
func TestSignedMeansClassOfSpecials(t *testing.T) {
	const n = 4*specL + 3
	for _, sp := range f32Specials {
		for pos := 0; pos < n; pos++ {
			v := make([]float32, n)
			for i := range v {
				v[i] = float32(i%5) - 2.25
			}
			v[pos] = sp
			var wantP, wantN float64
			wantPos := 0
			for _, x := range v {
				if x >= 0 {
					wantP += float64(x)
					wantPos++
				} else {
					wantN -= float64(x)
				}
			}
			eachSignedVariant(t, func(name string) {
				_, _, nPos := SignedMeans(v)
				gotP, gotN, _ := signedSegment(v)
				if nPos != wantPos ||
					math.IsNaN(gotP) != math.IsNaN(wantP) || math.IsNaN(gotN) != math.IsNaN(wantN) ||
					math.IsInf(gotP, 0) != math.IsInf(wantP, 0) || math.IsInf(gotN, 0) != math.IsInf(wantN, 0) {
					t.Fatalf("%s: %v at %d: nPos %d, sums (%v, %v); the scalar rule gives %d, (%v, %v)",
						name, sp, pos, nPos, gotP, gotN, wantPos, wantP, wantN)
				}
			})
		}
	}
}

// TestVecViewSignedMeansMatchesSpecification: a one-segment view is the flat
// vector, a multi-segment view is the specification's ascending fold of its
// segments' triples — serial and parallel entry points, every variant.
func TestVecViewSignedMeansMatchesSpecification(t *testing.T) {
	rng := NewRNG(42)
	sameMeans := func(label string, mp, mn float32, np int, wp, wn float32, wnp int) {
		t.Helper()
		if math.Float32bits(mp) != math.Float32bits(wp) || math.Float32bits(mn) != math.Float32bits(wn) || np != wnp {
			t.Fatalf("%s: (%v, %v, %d), want (%v, %v, %d)", label, mp, mn, np, wp, wn, wnp)
		}
	}
	for _, n := range append([]int{specB + 5, 2*specB + 77}, simdLens...) {
		flat := make([]float32, n)
		wideVec(rng, flat)
		segs := randSplit(rng, flat)
		view := NewVecView(segs...)
		fp, fn, fnp := specView([][]float32{flat})
		wp, wn, wnp := specView(segs)
		eachSignedVariant(t, func(name string) {
			mp, mn, np := SignedMeans(flat)
			sameMeans(name+" SignedMeans", mp, mn, np, fp, fn, fnp)
			mp, mn, np = NewVecView(flat).SignedMeans()
			sameMeans(name+" one-segment view", mp, mn, np, fp, fn, fnp)
			mp, mn, np = NewVecView(flat).ParSignedMeans()
			sameMeans(name+" one-segment view, Par", mp, mn, np, fp, fn, fnp)
			mp, mn, np = view.SignedMeans()
			sameMeans(name+" segmented view", mp, mn, np, wp, wn, wnp)
			mp, mn, np = view.ParSignedMeans()
			sameMeans(name+" segmented view, Par", mp, mn, np, wp, wn, wnp)
		})
	}
}

// TestSignedMeansPinnedTriples anchors the specification across targets:
// these bits must come out of every variant on amd64, of the portable code
// under -tags purego, and on any other GOARCH that runs the tests.
func TestSignedMeansPinnedTriples(t *testing.T) {
	v := make([]float32, 100003)
	wideVec(NewRNG(2021), v)
	pins := []struct {
		name   string
		seg    []float32
		sp, sn uint64
		nNeg   int
	}{
		{"whole", v, 0x40ac73cfa55bd3be, 0x40ac0d6555b3e1ce, 49992},
		{"block+tail, misaligned", v[5 : 5+specB+11], 0x40a2c5cec744ccbf, 0x40a2962e61655972, 32758},
		{"groups+tail", v[70001:74100], 0x406318f799566f98, 0x406232a97c727626, 2059},
	}
	for _, p := range pins {
		eachSignedVariant(t, func(name string) {
			sp, sn, c := signedSegment(p.seg)
			if math.Float64bits(sp) != p.sp || math.Float64bits(sn) != p.sn || c != p.nNeg {
				t.Errorf("%s, %s: (%#x, %#x, %d), pinned (%#x, %#x, %d)", name, p.name,
					math.Float64bits(sp), math.Float64bits(sn), c, p.sp, p.sn, p.nNeg)
			}
		})
		// The pin does see the order: one running sum gives other bits.
		var seq float64
		for _, x := range p.seg {
			if x >= 0 {
				seq += float64(x)
			}
		}
		if math.Float64bits(seq) == p.sp {
			t.Errorf("%s: the sequential sum has the pinned bits %#x; the vector does not tell orders apart", p.name, p.sp)
		}
	}
}
