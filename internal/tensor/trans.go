package tensor

import "math"

// Sigmoid sets dst[i] = float32(1 / (1 + math.Exp(-float64(src[i])))). Panics
// when lengths differ; dst may be src. Every build gives those bits
// (package comment, "Transcendentals").
func Sigmoid(dst, src Vec) {
	checkLen(len(dst), len(src))
	v := transActive
	transBlocks(len(src), v.lanes,
		func(lo, hi int) int { return v.sigmoid(dst[lo:hi], src[lo:hi]) },
		func(lo, hi int) { sigmoidScalar(dst[lo:hi], src[lo:hi]) })
}

// Tanh sets dst[i] = float32(math.Tanh(float64(src[i]))). Panics when lengths
// differ; dst may be src.
func Tanh(dst, src Vec) {
	checkLen(len(dst), len(src))
	v := transActive
	transBlocks(len(src), v.lanes,
		func(lo, hi int) int { return v.tanh(dst[lo:hi], src[lo:hi]) },
		func(lo, hi int) { tanhScalar(dst[lo:hi], src[lo:hi]) })
}

// ExpShift sets dst[i] = math.Exp(float64(src[i] - m)), the shifted
// exponentials of a softmax. Panics when lengths differ.
func ExpShift(dst []float64, src Vec, m float32) {
	checkLen(len(dst), len(src))
	v := transActive
	transBlocks(len(src), v.expLanes,
		func(lo, hi int) int { return v.expShift(dst[lo:hi], src[lo:hi], m) },
		func(lo, hi int) { expShiftScalar(dst[lo:hi], src[lo:hi], m) })
}

// transVariant is one implementation of the transcendentals. Every variant
// computes the scalar loops' bits; they differ in how many lanes a kernel
// call takes.
type transVariant struct {
	name string
	// lanes and expLanes are the blocks the Sigmoid and Tanh kernels and
	// the ExpShift kernel take and decline whole; 0 runs the scalar loop
	// alone.
	lanes, expLanes int
	// sigmoid, tanh and expShift run over len(src) elements, a multiple of
	// their block, and return how many they finished: they stop before the
	// first block they decline (the architecture files say which).
	sigmoid, tanh func(dst, src Vec) int
	expShift      func(dst []float64, src Vec, m float32) int
}

var (
	transPortable = transVariant{name: "portable"}
	// transActive is the variant in use: the widest this binary can run on
	// this CPU, the last of transVariants (see the architecture files). Only
	// tests assign it, to run every one of them.
	transActive = transVariants()[len(transVariants())-1]
)

// transBlocks covers [0, n): kernel(lo, hi) takes the elements [lo, hi),
// hi − lo a multiple of lanes, and returns how many it finished; scalar(lo,
// hi) takes each block the kernel declines, the tail, and everything when
// lanes is 0. Elementwise, so the split changes no bit.
func transBlocks(n, lanes int, kernel func(lo, hi int) int, scalar func(lo, hi int)) {
	i := 0
	if lanes > 0 {
		full := n - n%lanes
		for i < full {
			i += kernel(i, full)
			if i < full {
				scalar(i, i+lanes)
				i += lanes
			}
		}
	}
	scalar(i, n)
}

func sigmoidScalar(dst, src Vec) {
	for i, x := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(x))))
	}
}

func tanhScalar(dst, src Vec) {
	for i, x := range src {
		dst[i] = float32(math.Tanh(float64(x)))
	}
}

func expShiftScalar(dst []float64, src Vec, m float32) {
	for i, x := range src {
		dst[i] = math.Exp(float64(x - m))
	}
}
