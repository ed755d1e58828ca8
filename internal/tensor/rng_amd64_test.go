//go:build amd64 && !purego

package tensor

import (
	"math"
	"testing"
)

// TestNormKernelRuns: on a CPU with AVX2 NormVec transforms through the
// kernel, so the differential tests hold the kernel, not the scalar loop, to
// the oracle.
func TestNormKernelRuns(t *testing.T) {
	if cpuAVX2 && !normKernel {
		t.Fatal("AVX2 CPU, but NormVec does not select the polar kernel")
	}
}

// TestLogKernelMatchesMathLog holds the kernel's logarithm to math.Log bit
// for bit over a strided sweep of the float64 patterns in (0, 1), the polar
// method's s, subnormals included; over the points where archLog's reduction
// turns, the mantissa of √2/2 and its neighbours, at every normal exponent
// (at 2³², f1 == √2/2 takes the f1·2 branch, as archLog's compare does); and
// at 2⁻¹⁰⁴, the smallest s the polar method can draw.
func TestLogKernelMatchesMathLog(t *testing.T) {
	if !normKernel {
		t.Skip("no AVX2")
	}
	const one = 0x3FF0000000000000
	stride := uint64(1<<40 + 15) // ≈ 4.2 M patterns
	if raceEnabled {
		stride = 1<<46 + 3
	}
	var xs []float64
	for b := uint64(1); b < one; b += stride {
		xs = append(xs, math.Float64frombits(b))
	}
	hsqrt2 := math.Float64bits(math.Sqrt2/2) & (1<<52 - 1)
	for e := uint64(1); e < 0x7FF; e++ {
		for d := -3; d <= 3; d++ {
			xs = append(xs, math.Float64frombits(e<<52|uint64(int64(hsqrt2)+int64(d))))
		}
	}
	xs = append(xs, 0x1p-104, math.Nextafter(1, 0), 0.5, math.SmallestNonzeroFloat64)
	for len(xs)%normLanes != 0 {
		xs = append(xs, 0.25)
	}
	got := make([]float64, len(xs))
	logKernel(&got[0], &xs[0], len(xs))
	for i, x := range xs {
		if want := math.Log(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("log(%g [%#016x]) = %g, math.Log %g", x, math.Float64bits(x), got[i], want)
		}
	}
}
