//go:build amd64 && !purego

package tensor

import "math"

// The transcendental kernels (trans_amd64.s) run the float64 operations of
// Go's amd64 math.Exp on its FMA path and of math.Tanh's portable body, four
// lanes to a YMM register (AVX2 and FMA) or eight to a ZMM register
// (AVX512F as well), so each lane's result is bitwise the scalar
// expression's (package comment, "Transcendentals"). math.Exp takes that
// path when CPUID reports AVX and FMA; every kernel needs AVX2 and FMA, so
// wherever one runs the scalar loop it replaces takes it too.

var (
	transAVX2 = transVariant{
		name: "avx2", lanes: 4,
		sigmoid:  func(dst, src Vec) int { return sigmoidKernel(&dst[0], &src[0], len(src)) },
		tanh:     func(dst, src Vec) int { return tanhKernel(&dst[0], &src[0], len(src)) },
		expShift: func(dst []float64, src Vec, m float32) int { return expShiftKernel(&dst[0], &src[0], len(src), m) },
	}
	transAVX512 = transVariant{
		name: "avx512", lanes: 8,
		sigmoid:  func(dst, src Vec) int { return sigmoidKernel512(&dst[0], &src[0], len(src)) },
		tanh:     func(dst, src Vec) int { return tanhKernel512(&dst[0], &src[0], len(src)) },
		expShift: func(dst []float64, src Vec, m float32) int { return expShiftKernel512(&dst[0], &src[0], len(src), m) },
	}
)

// transVariants lists every variant of the transcendental kernels this
// binary can run on this CPU, narrowest first: the scalar loops, then each
// kernel whose CPUID bits are present and whose start-up probe agrees with
// math.Exp.
func transVariants() []transVariant {
	vs := []transVariant{transPortable}
	if cpuAVX2 && cpuFMA && expAgrees(transAVX2) {
		vs = append(vs, transAVX2)
	}
	if cpuAVX2 && cpuFMA && cpuAVX512 && expAgrees(transAVX512) {
		vs = append(vs, transAVX512)
	}
	return vs
}

// expAgrees checks that math.Exp is on its FMA path after all: it is not
// when GODEBUG=cpu.fma=off or cpu.avx=off hides the feature from the math
// package, and then it differs from v's kernel in the last bit of each of
// these four arguments (every lane of a wider block takes one of them).
func expAgrees(v transVariant) bool {
	probe := [4]float32{-2.4751883, -0.47141004, -9.086903, 3.1554375}
	src := make(Vec, v.lanes)
	got := make([]float64, v.lanes)
	for i := range src {
		src[i] = probe[i%len(probe)]
	}
	if v.expShift(got, src, 0) != v.lanes {
		return false
	}
	for i, x := range src {
		if got[i] != math.Exp(float64(x)) {
			return false
		}
	}
	return true
}

// sigmoidKernel and expShiftKernel run over n elements, n a multiple of 4,
// and stop before the first block of 4 that holds an argument of exp beyond
// ±700 or a NaN, returning how many elements they finished. That block is
// math.Exp's overflow, denormal or non-finite case, which the caller hands
// to the scalar loop. tanhKernel declines no block: it clamps exp's
// argument and blends math.tanh's branches, so it returns n. The 512-bit
// kernels are the same over blocks of 8.
//
//go:noescape
func sigmoidKernel(dst, src *float32, n int) int

//go:noescape
func tanhKernel(dst, src *float32, n int) int

//go:noescape
func expShiftKernel(dst *float64, src *float32, n int, m float32) int

//go:noescape
func sigmoidKernel512(dst, src *float32, n int) int

//go:noescape
func tanhKernel512(dst, src *float32, n int) int

//go:noescape
func expShiftKernel512(dst *float64, src *float32, n int, m float32) int
