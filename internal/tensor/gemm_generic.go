//go:build !amd64 || purego

package tensor

// gemmVariants lists every kernel variant this binary can run, narrowest
// first: without assembly, the portable one.
func gemmVariants() []gemmVariant { return []gemmVariant{gemmPortable} }

func gemmKernel32(id, width, tiles, segs, seg int, a []float32, ars, aps int, b []float32, bps int, c []float32, ldc int, add bool) {
	gemmSegmentsGo(tiles, segs, seg, a, ars, aps, b, bps, c, ldc, add)
}

func packPanel(id int, dst []float32, width int, src []float32, lanes, k, laneStride, stepStride int) {
	pack32(dst, width, src, lanes, k, laneStride, stepStride)
}
