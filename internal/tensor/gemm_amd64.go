//go:build amd64 && !purego

package tensor

// Vector micro-kernels and panel packer for Gemm (gemm_amd64.s). The 4×16
// kernel holds the same eight accumulators as the portable kernel in
// gemm.go — eight output elements per 256-bit register — the 4×8 edge
// kernel four of them, and the 4×32 kernel eight of sixteen elements per
// 512-bit register; all take the terms in the same order, one VFMADD231PS
// per term — FMA32's single rounding — and start and end each segment as
// gemmSegmentsGo does, so the bits are those of the portable kernel and of
// the specification on GemmAdd. The packer only moves bits, so it is pack32
// bit for bit. The 256-bit kernels need AVX and FMA (VBROADCASTSS,
// VFMADD231PS, VADDPS; no AVX2), the packer AVX (VUNPCKxPx), and the OS
// saving the YMM state; the 4×32 kernel needs AVX512F and the OS saving the
// ZMM and opmask state as well, and its variant runs the 4×16 and 4×8
// kernels on a ragged last panel, so it needs FMA too. Any other amd64 CPU
// — one with AVX but no FMA included — runs the portable kernel and packer.

var (
	gemmAVX    = gemmVariant{name: "avx", id: 1, nr: 16}
	gemmAVX512 = gemmVariant{name: "avx512", id: 2, nr: 32}
)

// gemmVariants lists every kernel variant this binary can run on this CPU,
// narrowest first.
func gemmVariants() []gemmVariant { return gemmSelect(cpuAVX, cpuFMA, cpuAVX512) }

// gemmSelect lists the variants a CPU with the given features runs,
// narrowest first: the portable one always, the 256-bit one with AVX and
// FMA, the 512-bit one with AVX-512 as well.
func gemmSelect(avx, fma, avx512 bool) []gemmVariant {
	vs := []gemmVariant{gemmPortable}
	if avx && fma {
		vs = append(vs, gemmAVX)
		if avx512 {
			vs = append(vs, gemmAVX512)
		}
	}
	return vs
}

// gemmKernel32x32AVX512 is gemmKernel32AVX for 4×32 tiles: B(p,0..31) are
// the 32 contiguous floats at b + p·bps.
//
//go:noescape
func gemmKernel32x32AVX512(tiles, segs, seg int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)

// gemmKernel32AVX computes tiles 4×16 tiles, tile t at c + t·4·ldc (row
// stride ldc) from the four rows of A at a + t·4·ars, over segs segments of
// seg ≥ 1 steps: per segment, Σ over its steps of A(i,p)·B(p,j) from +0,
// with A(i,p) at a + i·ars + p·aps and B(p,0..15) the sixteen contiguous
// floats at b + p·bps, then c += tile — or c = tile when add is false,
// which is for a single segment. Every tile reads the same B. Strides are
// in bytes.
//
//go:noescape
func gemmKernel32AVX(tiles, segs, seg int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)

// gemmKernel32x8AVX is gemmKernel32AVX for 4×8 tiles: B(p,0..7) are the
// first eight floats at b + p·bps. It is the edge tile of a last column
// panel, which it reads and writes in place, and the scratch tile's kernel.
//
//go:noescape
func gemmKernel32x8AVX(tiles, segs, seg int, a *float32, ars, aps uintptr, b *float32, bps uintptr, c *float32, ldc uintptr, add bool)

// pack32x4AVX packs four lanes of a panel whose lanes run contiguous along
// the reduction: for each of k4 blocks of four steps it loads four floats
// from each of r0..r3, transposes the 4×4 block, clears the lanes whose mask
// word is 0 (AND with +0's pattern, so they read +0) and stores each step's
// four lanes at dst + p·ld. ld is in bytes.
//
//go:noescape
func pack32x4AVX(dst *float32, ld uintptr, r0, r1, r2, r3 *float32, mask *[4]uint32, k4 int)

// packMasks[n] keeps the first n of four lanes.
var packMasks = [5][4]uint32{
	{0, 0, 0, 0},
	{^uint32(0), 0, 0, 0},
	{^uint32(0), ^uint32(0), 0, 0},
	{^uint32(0), ^uint32(0), ^uint32(0), 0},
	{^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0)},
}

// pack32AVX is pack32 for lanes contiguous along k (stepStride 1) — the
// transposed operand of every a·bᵀ product — four lanes at a time through
// pack32x4AVX, the steps past the last multiple of four in Go. A group of
// four that runs past the operand's edge reads its last lane again in place
// of the missing ones and masks them to zero, so a ragged panel (conv1's
// weight gradient has 27 = 16 + 11 lanes) takes the same path as a full one.
func pack32AVX(dst []float32, width int, src []float32, lanes, k, laneStride int) {
	_, _ = dst[k*width-1], src[(lanes-1)*laneStride+k-1] // the kernel does not check bounds
	k4 := k &^ 3
	for l0 := 0; l0 < width; l0 += 4 {
		n := min(max(lanes-l0, 0), 4)
		row := func(i int) int { return min(l0+i, lanes-1) * laneStride }
		if k4 > 0 {
			pack32x4AVX(&dst[l0], uintptr(width)*4, &src[row(0)], &src[row(1)], &src[row(2)], &src[row(3)], &packMasks[n], k4/4)
		}
		for p := k4; p < k; p++ {
			d := dst[p*width+l0:][:4:4]
			for i := range d {
				d[i] = 0
				if i < n {
					d[i] = src[row(i)+p]
				}
			}
		}
	}
}

// packPanel fills one panel (the layout on gemmScratch.rows) with the
// packer of variant id.
func packPanel(id int, dst []float32, width int, src []float32, lanes, k, laneStride, stepStride int) {
	if id != gemmPortable.id && stepStride == 1 && laneStride != 1 && k > 0 {
		pack32AVX(dst, width, src, lanes, k, laneStride)
		return
	}
	pack32(dst, width, src, lanes, k, laneStride, stepStride)
}

// gemmKernel32 runs variant id's kernel of the given tile width (32, 16 or
// 8 for AVX-512, 16 or 8 for AVX, 8 for the portable one) over tiles row
// tiles and segs segments of seg steps.
func gemmKernel32(id, width, tiles, segs, seg int, a []float32, ars, aps int, b []float32, bps int, c []float32, ldc int, add bool) {
	if id == gemmPortable.id {
		gemmSegmentsGo(tiles, segs, seg, a, ars, aps, b, bps, c, ldc, add)
		return
	}
	switch width {
	case 32:
		gemmKernel32x32AVX512(tiles, segs, seg, &a[0], uintptr(ars)*4, uintptr(aps)*4, &b[0], uintptr(bps)*4, &c[0], uintptr(ldc)*4, add)
	case 16:
		gemmKernel32AVX(tiles, segs, seg, &a[0], uintptr(ars)*4, uintptr(aps)*4, &b[0], uintptr(bps)*4, &c[0], uintptr(ldc)*4, add)
	default:
		gemmKernel32x8AVX(tiles, segs, seg, &a[0], uintptr(ars)*4, uintptr(aps)*4, &b[0], uintptr(bps)*4, &c[0], uintptr(ldc)*4, add)
	}
}
