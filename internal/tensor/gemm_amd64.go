//go:build amd64 && !purego

package tensor

// Vector micro-kernels for Gemm (gemm_amd64.s). They hold the same eight
// accumulators as the portable kernels in gemm.go — four (Single) or two
// (Wide) output elements per 128-bit register, twice that per 256-bit one —
// and issue a separate multiply and add per term, never a fused one, so the
// bits are those of the portable kernels and of the specification on
// GemmAdd. SSE2 is the amd64 baseline; the 256-bit kernels use AVX only
// (VBROADCASTSS/SD, VMULPx, VADDPx — no AVX2, no FMA) and are selected when
// CPUID reports AVX and the OS saves the YMM state.

var (
	gemmSSE2 = gemmVariant{name: "sse2", id: 1, nr: 8, nrWide: 4}
	gemmAVX  = gemmVariant{name: "avx", id: 2, nr: 16, nrWide: 8}
)

// gemmVariants lists every kernel variant this binary can run on this CPU,
// narrowest first.
func gemmVariants() []gemmVariant {
	vs := []gemmVariant{gemmPortable, gemmSSE2}
	if cpuAVX {
		vs = append(vs, gemmAVX)
	}
	return vs
}

// gemmKernel32SSE computes the 4×8 tile at c (row stride ldc): Σ over k
// steps of A(i,p)·B(p,j) with A(i,p) at a + i·ars + p·aps and B(p,0..7) the
// eight contiguous floats at b + p·bps. Strides are in bytes. add selects
// c += tile over c = tile. gemmKernel32AVX is the same for a 4×16 tile.
//
//go:noescape
func gemmKernel32SSE(k int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)

//go:noescape
func gemmKernel32AVX(k int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)

// gemmKernel64SSE computes the 4×4 tile at c from packed float64 panels
// a[p*8+2i] = a[p*8+2i+1] (the pre-broadcast pairs pack64 writes) and
// b[p*4+j], rounding each finished sum to float32 once. gemmKernel64AVX is
// the same for a 4×8 tile over b[p*8+j].
//
//go:noescape
func gemmKernel64SSE(k int, a, b *float64, c *float32, ldc uintptr, add bool)

//go:noescape
func gemmKernel64AVX(k int, a, b *float64, c *float32, ldc uintptr, add bool)

func gemmKernel32(id, k int, a []float32, ars, aps int, b []float32, bps int, c []float32, ldc int, add bool) {
	switch id {
	case gemmAVX.id:
		gemmKernel32AVX(k, &a[0], uintptr(ars)*4, uintptr(aps)*4, &b[0], uintptr(bps)*4, &c[0], uintptr(ldc)*4, add)
	case gemmSSE2.id:
		gemmKernel32SSE(k, &a[0], uintptr(ars)*4, uintptr(aps)*4, &b[0], uintptr(bps)*4, &c[0], uintptr(ldc)*4, add)
	default:
		gemmKernel32Go(k, a, ars, aps, b, bps, c, ldc, add)
	}
}

func gemmKernel64(id, k int, a, b []float64, c []float32, ldc int, add bool) {
	switch id {
	case gemmAVX.id:
		gemmKernel64AVX(k, &a[0], &b[0], &c[0], uintptr(ldc)*4, add)
	case gemmSSE2.id:
		gemmKernel64SSE(k, &a[0], &b[0], &c[0], uintptr(ldc)*4, add)
	default:
		gemmKernel64Go(k, a, b, c, ldc, add)
	}
}
