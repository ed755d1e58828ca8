//go:build amd64 && !purego

package tensor

// Vector micro-kernels for Gemm (gemm_amd64.s). They hold the same eight
// accumulators as the portable kernels in gemm.go — eight (Single) or four
// (Wide) output elements per 256-bit register — and issue a separate
// multiply and add per term, never a fused one, so the bits are those of the
// portable kernels and of the specification on GemmAdd. They use AVX only
// (VBROADCASTSS/SD, VMULPx, VADDPx — no AVX2, no FMA) and are selected when
// CPUID reports AVX and the OS saves the YMM state; any other amd64 CPU runs
// the portable kernels.

var gemmAVX = gemmVariant{name: "avx", id: 1, nr: 16, nrWide: 8}

// gemmVariants lists every kernel variant this binary can run on this CPU,
// narrowest first.
func gemmVariants() []gemmVariant {
	if cpuAVX {
		return []gemmVariant{gemmPortable, gemmAVX}
	}
	return []gemmVariant{gemmPortable}
}

// gemmKernel32AVX computes the 4×16 tile at c (row stride ldc): Σ over k
// steps of A(i,p)·B(p,j) with A(i,p) at a + i·ars + p·aps and B(p,0..15) the
// sixteen contiguous floats at b + p·bps. Strides are in bytes. add selects
// c += tile over c = tile.
//
//go:noescape
func gemmKernel32AVX(k int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)

// gemmKernel64AVX computes the 4×8 tile at c from packed float64 panels
// a[p*8+2i] (the pairs pack64 writes; the kernel reads the first of each)
// and b[p*8+j], rounding each finished sum to float32 once.
//
//go:noescape
func gemmKernel64AVX(k int, a, b *float64, c *float32, ldc uintptr, add bool)

func gemmKernel32(id, k int, a []float32, ars, aps int, b []float32, bps int, c []float32, ldc int, add bool) {
	if id == gemmAVX.id {
		gemmKernel32AVX(k, &a[0], uintptr(ars)*4, uintptr(aps)*4, &b[0], uintptr(bps)*4, &c[0], uintptr(ldc)*4, add)
		return
	}
	gemmKernel32Go(k, a, ars, aps, b, bps, c, ldc, add)
}

func gemmKernel64(id, k int, a, b []float64, c []float32, ldc int, add bool) {
	if id == gemmAVX.id {
		gemmKernel64AVX(k, &a[0], &b[0], &c[0], uintptr(ldc)*4, add)
		return
	}
	gemmKernel64Go(k, a, b, c, ldc, add)
}
