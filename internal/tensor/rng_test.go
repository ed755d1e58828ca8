package tensor

import (
	"math"
	"math/bits"
	"testing"
)

// The oracle for NormVec is the loop its doc comment names: one Norm per
// element, in order, each scaled and shifted with two float32 roundings.
func normVecRef(r *RNG, dst []float32, mean, std float32) {
	for i := range dst {
		dst[i] = mean + float32(std*r.Norm())
	}
}

// normParams are the (mean, std) the differential tests take: the standard
// normal, the gradient scale of the figures and the benchmarks, and a shifted
// and widened one.
var normParams = [][2]float32{{0, 1}, {0, 0.05}, {-3, 2}}

// TestNormVecMatchesNormLoop holds NormVec to the loop bit for bit, value and
// final generator state, for 20 seeds and every length 0–1025 (a stride of
// them under -race) drawn back to back from one stream per seed, so chunk
// boundaries, kernel blocks and tails fall at every position of the stream.
func TestNormVecMatchesNormLoop(t *testing.T) {
	const maxLen = 1025
	step := 1
	if raceEnabled {
		step = 37
	}
	got, want := make([]float32, maxLen), make([]float32, maxLen)
	for seed := uint64(1); seed <= 20; seed++ {
		for _, p := range normParams {
			r, ref := NewRNG(seed), NewRNG(seed)
			for n := 0; n <= maxLen; n += step {
				r.NormVec(got[:n], p[0], p[1])
				normVecRef(ref, want[:n], p[0], p[1])
				for i := 0; i < n; i++ {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("seed %d, (mean, std) %v, n %d: [%d] = %g, loop %g", seed, p, n, i, got[i], want[i])
					}
				}
				if r.State() != ref.State() {
					t.Fatalf("seed %d, (mean, std) %v, n %d: state %x, loop %x", seed, p, n, r.State(), ref.State())
				}
			}
		}
	}
}

// TestNormVecSubSlices writes through dst sub-slices at every alignment
// within a 32-byte block and every length to 33, and leaves the elements
// around them alone.
func TestNormVecSubSlices(t *testing.T) {
	const sentinel = 12345.5
	buf := make([]float32, 48)
	want := make([]float32, 33)
	r, ref := NewRNG(3), NewRNG(3)
	for off := 0; off < 8; off++ {
		for n := 0; n <= 33; n++ {
			for i := range buf {
				buf[i] = sentinel
			}
			r.NormVec(buf[off:off+n], -3, 2)
			normVecRef(ref, want[:n], -3, 2)
			for i, v := range buf {
				switch {
				case i < off || i >= off+n:
					if v != sentinel {
						t.Fatalf("off %d, n %d: wrote [%d] outside dst", off, n, i)
					}
				case math.Float32bits(v) != math.Float32bits(want[i-off]):
					t.Fatalf("off %d, n %d: [%d] = %g, loop %g", off, n, i-off, v, want[i-off])
				}
			}
		}
	}
	if r.State() != ref.State() {
		t.Fatal("final state differs from the loop's")
	}
}

// outputInverse returns the s1 for which xoshiro256**'s output
// rotl(s1·5, 7)·9 is x.
func outputInverse(x uint64) uint64 {
	inv := func(a uint64) uint64 { // a⁻¹ mod 2⁶⁴ by Newton's iteration, a odd
		y := a
		for i := 0; i < 5; i++ {
			y *= 2 - a*y
		}
		return y
	}
	return bits.RotateLeft64(x*inv(9), -7) * inv(5)
}

// stateForPair returns a generator state whose next two Float64 draws give
// 2·F − 1 = u and v, for u and v on the grid 2·k·2⁻⁵³ − 1, k < 2⁵³.
func stateForPair(u, v float64, fill uint64) [4]uint64 {
	output := func(w float64) uint64 { return uint64((w+1)/2*(1<<53)) << 11 }
	first, second := outputInverse(output(u)), outputInverse(output(v))
	// One step turns s1 into s1 ^ s2 ^ s0; s0 and s3 are free.
	s0, s3 := fill, ^fill
	return [4]uint64{s0, first, second ^ first ^ s0, s3}
}

// TestNormVecEdgePairs starts NormVec and the loop from states whose first
// pair is on the edge of the polar method's acceptance: s = 1 and s = 0 are
// rejected, s = 2⁻¹⁰⁴ (the smallest positive s the grid allows) and the
// pairs just inside the circle are accepted.
func TestNormVecEdgePairs(t *testing.T) {
	const ulp = 1.0 / (1 << 52)
	pairs := [][2]float64{
		{-1, 0}, {0, -1}, // s = 1
		{0, 0},              // s = 0
		{ulp, 0}, {0, -ulp}, // s = 2⁻¹⁰⁴
		{-1 + ulp, 0}, {1 - 2*ulp, 0}, // just inside
		{-1, -1}, // s = 2
	}
	got, want := make([]float32, 9), make([]float32, 9)
	for i, p := range pairs {
		st := stateForPair(p[0], p[1], 0x9e3779b97f4a7c15*uint64(i+1))
		r := &RNG{}
		r.SetState(st)
		if u, v := 2*r.Float64()-1, 2*r.Float64()-1; u != p[0] || v != p[1] {
			t.Fatalf("state for %v draws (%g, %g)", p, u, v)
		}
		for n := 1; n <= len(got); n++ {
			r.SetState(st)
			ref := &RNG{}
			ref.SetState(st)
			r.NormVec(got[:n], 0, 1)
			normVecRef(ref, want[:n], 0, 1)
			for k := 0; k < n; k++ {
				if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
					t.Fatalf("first pair %v, n %d: [%d] = %g, loop %g", p, n, k, got[k], want[k])
				}
			}
			if r.State() != ref.State() {
				t.Fatalf("first pair %v, n %d: final state differs from the loop's", p, n)
			}
		}
	}
}

func TestNormVecAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dst := make([]float32, 4096)
	r := NewRNG(5)
	if n := testing.AllocsPerRun(10, func() { r.NormVec(dst, 0, 1) }); n != 0 {
		t.Errorf("NormVec makes %v allocs/op", n)
	}
}
