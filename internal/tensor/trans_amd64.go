//go:build amd64 && !purego

package tensor

import "math"

// The transcendental kernels (trans_amd64.s) run, four float64 lanes to a
// YMM register, the float64 operations of Go's amd64 math.Exp on its FMA path
// and of math.Tanh's portable body, so each lane's result is bitwise the
// scalar expression's (package comment, "Transcendentals"). math.Exp takes
// that path when CPUID reports AVX and FMA; the kernels need AVX2 and FMA,
// so wherever they run the scalar loop they replace takes it too.

// transKernels selects the kernels over the scalar loops.
var transKernels = cpuAVX2 && cpuFMA && expAgrees()

// expAgrees checks that math.Exp is on its FMA path after all: it is not
// when GODEBUG=cpu.fma=off or cpu.avx=off hides the feature from the math
// package, and then it differs from the kernel in the last bit of each of
// these four arguments.
func expAgrees() bool {
	src := [transLanes]float32{-2.4751883, -0.47141004, -9.086903, 3.1554375}
	var got [transLanes]float64
	expShiftKernel(&got[0], &src[0], transLanes, 0)
	for i, x := range src {
		if got[i] != math.Exp(float64(x)) {
			return false
		}
	}
	return true
}

// transLanes is the block the kernels take and decline whole.
const transLanes = 4

// sigmoidKernel and expShiftKernel run over n elements, n a multiple of
// transLanes, and stop before the first block that holds an argument of exp
// beyond ±700 or a NaN, returning how many elements they finished. That
// block is math.Exp's overflow, denormal or non-finite case, which the
// caller hands to the scalar loop. tanhKernel declines no block: it clamps
// exp's argument and blends math.tanh's branches, so it returns n.
//
//go:noescape
func sigmoidKernel(dst, src *float32, n int) int

//go:noescape
func tanhKernel(dst, src *float32, n int) int

//go:noescape
func expShiftKernel(dst *float64, src *float32, n int, m float32) int

func vecSigmoid(dst, src Vec) {
	transBlocks(len(src),
		func(i, n int) int { return sigmoidKernel(&dst[i], &src[i], n) },
		func(lo, hi int) { sigmoidScalar(dst[lo:hi], src[lo:hi]) })
}

func vecTanh(dst, src Vec) {
	transBlocks(len(src),
		func(i, n int) int { return tanhKernel(&dst[i], &src[i], n) },
		func(lo, hi int) { tanhScalar(dst[lo:hi], src[lo:hi]) })
}

func vecExpShift(dst []float64, src Vec, m float32) {
	transBlocks(len(src),
		func(i, n int) int { return expShiftKernel(&dst[i], &src[i], n, m) },
		func(lo, hi int) { expShiftScalar(dst[lo:hi], src[lo:hi], m) })
}

// transBlocks covers [0, n): kernel(i, k) takes the k elements from i, k a
// multiple of transLanes, and returns how many it finished; scalar(lo, hi)
// takes each block the kernel declines, the tail, and everything when the
// kernels do not run. Elementwise, so the split changes no bit.
func transBlocks(n int, kernel func(i, k int) int, scalar func(lo, hi int)) {
	i := 0
	if transKernels {
		full := n &^ (transLanes - 1)
		for i < full {
			i += kernel(i, full-i)
			if i < full {
				scalar(i, i+transLanes)
				i += transLanes
			}
		}
	}
	scalar(i, n)
}
