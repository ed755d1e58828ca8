//go:build !amd64 || purego

package tensor

// gemmVariants lists every kernel variant this binary can run, narrowest
// first: without assembly, the portable one.
func gemmVariants() []gemmVariant { return []gemmVariant{gemmPortable} }

func gemmKernel32(id, k int, a []float32, ars, aps int, b []float32, bps int, c []float32, ldc int, add bool) {
	gemmKernel32Go(k, a, ars, aps, b, bps, c, ldc, add)
}

func gemmKernel64(id, k int, a, b []float64, c []float32, ldc int, add bool) {
	gemmKernel64Go(k, a, b, c, ldc, add)
}

func packPanel64(id int, dst []float64, width int, src []float32, lanes, k, laneStride, stepStride int) {
	pack64(dst, width, src, lanes, k, laneStride, stepStride)
}
