//go:build amd64 && !purego

package tensor

import "math"

// The transcendental kernels (trans_amd64.s) compute four float64 lanes to
// a YMM register (AVX2 and FMA) or eight to a ZMM register (AVX512F as
// well). Sigmoid's and Tanh's take two registers to a block, 8 or 16
// elements, and compute a division-free approximation whose float32
// rounding is the scalar expression's wherever the rounding test passes,
// and decline every block that holds a lane where it does not (package
// comment, "Transcendentals"); that holds for both of math.Exp's amd64
// paths, so they need no probe. ExpShift's take one register to a block, 4
// or 8 elements, and run the float64 operations of Go's amd64 math.Exp on
// its FMA path, so each lane's result is bitwise the scalar expression's
// when math.Exp takes that path, which it does when CPUID reports AVX and
// FMA; a start-up probe turns them off when GODEBUG hides either from the
// math package.

var (
	transAVX2 = transVariant{
		name: "avx2", lanes: 8, expLanes: 4,
		sigmoid:  func(dst, src Vec) int { return sigmoidKernel(&dst[0], &src[0], len(src)) },
		tanh:     func(dst, src Vec) int { return tanhKernel(&dst[0], &src[0], len(src)) },
		expShift: func(dst []float64, src Vec, m float32) int { return expShiftKernel(&dst[0], &src[0], len(src), m) },
	}
	transAVX512 = transVariant{
		name: "avx512", lanes: 16, expLanes: 8,
		sigmoid:  func(dst, src Vec) int { return sigmoidKernel512(&dst[0], &src[0], len(src)) },
		tanh:     func(dst, src Vec) int { return tanhKernel512(&dst[0], &src[0], len(src)) },
		expShift: func(dst []float64, src Vec, m float32) int { return expShiftKernel512(&dst[0], &src[0], len(src), m) },
	}
)

// transVariants lists every variant of the transcendental kernels this
// binary can run on this CPU, narrowest first: the scalar loops, then each
// kernel whose CPUID bits are present, with its ExpShift kernel only where
// its start-up probe agrees with math.Exp.
func transVariants() []transVariant {
	vs := []transVariant{transPortable}
	if cpuAVX2 && cpuFMA {
		vs = append(vs, probedExp(transAVX2))
	}
	if cpuAVX2 && cpuFMA && cpuAVX512 {
		vs = append(vs, probedExp(transAVX512))
	}
	return vs
}

// probedExp returns v with ExpShift left to the scalar loop unless
// expAgrees(v).
func probedExp(v transVariant) transVariant {
	if !expAgrees(v) {
		v.expShift, v.expLanes = nil, 0
	}
	return v
}

// expAgrees checks that math.Exp is on its FMA path after all: it is not
// when GODEBUG=cpu.fma=off or cpu.avx=off hides the feature from the math
// package, and then it differs from v's kernel in the last bit of each of
// these four arguments (every lane of a wider block takes one of them).
func expAgrees(v transVariant) bool {
	probe := [4]float32{-2.4751883, -0.47141004, -9.086903, 3.1554375}
	src := make(Vec, v.expLanes)
	got := make([]float64, v.expLanes)
	for i := range src {
		src[i] = probe[i%len(probe)]
	}
	if v.expShift(got, src, 0) != v.expLanes {
		return false
	}
	for i, x := range src {
		if got[i] != math.Exp(float64(x)) {
			return false
		}
	}
	return true
}

// sigmoidKernel and tanhKernel run over n elements, n a multiple of 8, and
// stop before the first block of 8 that holds a lane failing the rounding
// test (a NaN argument, a result below 2⁻¹²⁶, a float64 value within the
// margin of a float32 rounding midpoint), returning how many elements they
// finished; the caller hands that block to the scalar loop. expShiftKernel
// runs over n elements, n a multiple of 4, and stops before the first block
// of 4 that holds an argument of exp beyond ±700 or a NaN: math.Exp's
// overflow, denormal or non-finite case. The 512-bit kernels are the same
// over blocks of 16 and 8.
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
