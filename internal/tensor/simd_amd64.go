//go:build amd64 && !purego

package tensor

// This file extends the bits.go build-tag pattern from byte views to compute
// kernels: hand-written SSE2 assembly for the elementwise hot loops (Add,
// AXPY, Scale) and for QSGD's stochastic level-quantization inner loop — SSE2
// is part of the amd64 baseline (GOAMD64=v1) — and 256-bit AVX2 assembly for
// A2SGD's two passes (signed means and signed shift), selected from CPUID
// alone (cpu_amd64.go). A CPU without AVX2 runs those two passes on the
// portable kernels, as do the purego tag and every other GOARCH
// (simd_generic.go).
//
// Every kernel is bitwise-identical to its scalar counterpart. Elementwise
// and order-independent operations (per-lane add/mul, max, truncation) are
// vectorized freely; the one float reduction, the signed means, has its
// association order written down — the reduction specification in the package
// comment — and every variant here, like the portable one, computes exactly
// it. The quantization kernel reproduces the scalar float64 arithmetic
// operation-for-operation (convert, abs, divide by norm, multiply by s,
// truncate, stochastic promote, clamp). Kernels assume finite inputs;
// gradient health checks (HasNaNOrInf) run upstream. The exceptions are the
// signed-means and signed-shift kernels, which classify −0.0, NaN and ±Inf
// lane for lane as the scalar x >= 0 does.
//
// The other 256-bit kernels live beside the operations they serve, each
// selected from the CPUID bits it needs (cpu_amd64.go): Gemm's micro-kernel
// and panel packer (gemm_amd64.s) on AVX; the transcendentals
// (trans_amd64.s) on AVX2 and FMA; HasNaNOrInf's exponent test (here) on
// AVX2; the normal-variate transform
// (rng_amd64.s) on AVX2; and the layer kernels (layer_amd64.s) on AVX2 and
// FMA — the batch-norm channel sums (four channels to a register), its
// forward and backward elementwise passes, the 2×2 max pool, and ReLU and
// its gradient. The layer kernels take specials as their scalar loops do:
// the pool compares ordered (NaN never wins), ReLU works on bit patterns.
// Three of them have a 512-bit variant, chosen when the CPU has AVX512F and
// the OS saves the ZMM and opmask state: Gemm's 4×32 tile, the
// transcendentals on eight float64 lanes, and the exponent test on sixteen.

// simdMinLen is the shortest vector worth the call overhead of an assembly
// kernel; shorter vectors take the scalar path.
const simdMinLen = 16

//go:noescape
func addKernel(dst, src *float32, n int)

//go:noescape
func axpyKernel(dst *float32, a float32, src *float32, n int)

//go:noescape
func scaleKernel(v *float32, c float32, n int)

// qsgdFieldsKernel handles an even number of elements; the Go wrapper peels
// the odd tail. norm and s are passed as float64 so the kernel performs the
// exact double-precision divide/multiply of the scalar path.
//
//go:noescape
func qsgdFieldsKernel(fields *uint32, src *float32, rnd *float64, n int, norm float64, s float64)

// signedMeansKernelAVX2 is the lane kernel of the reduction specification
// (package comment) over n > 0 elements, n a multiple of meansLanes: the
// lane-ordered signed sums sp = Σ x_i over 0 <= x_i and sn = Σ −x_i over the
// rest, folded by the halving tree, and the size of the rest. Two YMM
// registers hold a sum's eight lanes.
//
//go:noescape
func signedMeansKernelAVX2(v *float32, n int) (sp, sn float64, nNeg int64)

// signedShiftKernelAVX is SignedShift over n elements, n a multiple of 8: the
// sign class of each lane is the ordered compare 0 <= x (true for −0.0, false
// for NaN — Go's x >= 0), and the mask blends the per-class constants, so
// there is no branch to mispredict.
//
//go:noescape
func signedShiftKernelAVX(v *float32, n int, subPos, subNeg, addPos, addNeg float32)

//go:noescape
func absKernel(dst, src *float32, n int)

// gaussTailKernel scans an even number of elements and stores base+i for
// every i whose float64 distance from mu exceeds tau; returns the selected
// count. The Go wrapper peels the odd tail.
//
//go:noescape
func gaussTailKernel(dst *int32, src *float32, n int, base int32, mu, tau float64) int64

// eliasPackKernel is the batched Elias-gamma+sign writer
// (EliasGammaSignPack); scalar amd64 code — the win over the portable loop
// is BSR for the bit length and the branch-free two-word store.
//
//go:noescape
func eliasPackKernel(words *uint32, fields *uint32, n int, bitPos uint64) uint64

func vecAdd(dst, src Vec) {
	if len(dst) >= simdMinLen {
		addKernel(&dst[0], &src[0], len(dst))
		return
	}
	addScalar(dst, src)
}

func vecAXPY(dst Vec, a float32, src Vec) {
	if len(dst) >= simdMinLen {
		axpyKernel(&dst[0], a, &src[0], len(dst))
		return
	}
	axpyScalar(dst, a, src)
}

func vecScale(v Vec, c float32) {
	if len(v) >= simdMinLen {
		scaleKernel(&v[0], c, len(v))
		return
	}
	scaleScalar(v, c)
}

// signedVariants lists every variant of the two A2SGD passes this binary can
// run on this CPU, narrowest first. The 256-bit one needs AVX2 for the means
// (its shift uses AVX only).
func signedVariants() []signedVariant {
	if cpuAVX2 {
		return []signedVariant{signedPortable, {name: "avx2", lanes: signedLanesAVX2, shift: signedShiftAVX}}
	}
	return []signedVariant{signedPortable}
}

// finiteVariants lists every variant of HasNaNOrInf this binary can run on
// this CPU, narrowest first: the exponent test on eight lanes needs AVX2
// (256-bit integer AND and compare), on sixteen AVX512F.
func finiteVariants() []finiteVariant {
	vs := []finiteVariant{finitePortable}
	if cpuAVX2 {
		vs = append(vs, finiteVariant{name: "avx2", hasNaNOrInf: func(v Vec) bool { return nonFiniteBlocks(v, 8, nonFiniteKernelAVX2) }})
	}
	if cpuAVX512 {
		vs = append(vs, finiteVariant{name: "avx512", hasNaNOrInf: func(v Vec) bool { return nonFiniteBlocks(v, 16, nonFiniteKernelAVX512) }})
	}
	return vs
}

// nonFiniteBlocks hands kernel the whole blocks of lanes elements and the
// scalar loop the rest.
func nonFiniteBlocks(v Vec, lanes int, kernel func(v *float32, n int) bool) bool {
	full := len(v) &^ (lanes - 1)
	if full > 0 && kernel(&v[0], full) {
		return true
	}
	return hasNaNOrInfScalar(v[full:])
}

// nonFiniteKernelAVX2 and nonFiniteKernelAVX512 report whether any of n
// elements, n > 0 a multiple of 8 (16), has an all-ones exponent field — is
// NaN or ±Inf — stopping at the first block that has one.
//
//go:noescape
func nonFiniteKernelAVX2(v *float32, n int) bool

//go:noescape
func nonFiniteKernelAVX512(v *float32, n int) bool

func signedLanesAVX2(v []float32) (sp, sn float64, nNeg int) {
	sp, sn, c := signedMeansKernelAVX2(&v[0], len(v))
	return sp, sn, int(c)
}

// signedShiftAVX hands the kernel the whole groups of eight and the scalar
// loop the rest: elementwise, so the split changes no bit.
func signedShiftAVX(v Vec, subPos, subNeg, addPos, addNeg float32) {
	full := len(v) &^ 7
	if full > 0 {
		signedShiftKernelAVX(&v[0], full, subPos, subNeg, addPos, addNeg)
	}
	signedShiftScalar(v[full:], subPos, subNeg, addPos, addNeg)
}

// quantFieldsArch runs the vector quantization kernel over the longest even
// prefix and returns how many elements it handled; the caller finishes the
// tail with the scalar loop.
func quantFieldsArch(fields []uint32, g []float32, rnd []float64, norm float32, levels int) int {
	n := len(g) &^ 1
	if n < simdMinLen {
		return 0
	}
	qsgdFieldsKernel(&fields[0], &g[0], &rnd[0], n, float64(norm), float64(levels))
	return n
}

func vecAbsInto(dst, src Vec) {
	if len(src) >= simdMinLen {
		absKernel(&dst[0], &src[0], len(src))
		return
	}
	absIntoScalar(dst, src)
}

// gaussTailArch runs the selection kernel over the longest even prefix of
// src, returning the selected count and the prefix length consumed; the
// caller finishes the tail with the scalar predicate.
func gaussTailArch(dst []int32, src []float32, base int32, mu, tau float64) (nsel, done int) {
	done = len(src) &^ 1
	if done < simdMinLen {
		return 0, 0
	}
	nsel = int(gaussTailKernel(&dst[0], &src[0], done, base, mu, tau))
	return nsel, done
}

func eliasPackArch(words []uint32, fields []uint32, bitPos uint64) uint64 {
	if len(fields) == 0 {
		return bitPos
	}
	return eliasPackKernel(&words[0], &fields[0], len(fields), bitPos)
}
