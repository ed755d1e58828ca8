//go:build amd64 && !purego

package tensor

// This file extends the bits.go build-tag pattern from byte views to compute
// kernels: hand-written SSE2 assembly for the elementwise hot loops (Add,
// AXPY, Scale, AbsMax) and for the stochastic level-quantization inner loop
// shared by QSGD and TernGrad. SSE2 is part of the amd64 baseline (GOAMD64=v1)
// so no runtime feature detection is needed; the purego tag or any other
// GOARCH selects the portable fallbacks in simd_generic.go.
//
// Every kernel is bitwise-identical to its scalar counterpart: only
// elementwise and order-independent operations are vectorized (per-lane
// add/mul, max, truncation), never float reductions whose association order
// would change the rounded result. The quantization kernel reproduces the
// scalar float64 arithmetic operation-for-operation (convert, abs, divide by
// norm, multiply by s, truncate, stochastic promote, clamp). Kernels assume
// finite inputs; gradient health checks (HasNaNOrInf) run upstream. The
// exception is signedShiftKernel, which classifies −0.0, NaN and ±Inf lane
// for lane as the scalar x >= 0 does.

// simdMinLen is the shortest vector worth the call overhead of an assembly
// kernel; shorter vectors take the scalar path.
const simdMinLen = 16

//go:noescape
func addKernel(dst, src *float32, n int)

//go:noescape
func axpyKernel(dst *float32, a float32, src *float32, n int)

//go:noescape
func scaleKernel(v *float32, c float32, n int)

//go:noescape
func absMaxKernel(v *float32, n int) float32

// qsgdFieldsKernel handles an even number of elements; the Go wrapper peels
// the odd tail. norm and s are passed as float64 so the kernel performs the
// exact double-precision divide/multiply of the scalar path.
//
//go:noescape
func qsgdFieldsKernel(fields *uint32, src *float32, rnd *float64, n int, norm float64, s float64)

// signedMeansKernel reduces n elements (a multiple of 4) into the signed
// partial sums of SignedMeans: sp = Σ x_i for x_i >= 0, sn = Σ -x_i for
// x_i < 0, nNeg = |{x_i < 0}|. The two double-precision accumulator lanes
// split the input by parity and are folded lane0+lane1 at the end, so the
// association order differs from the sequential scalar sum — a deliberate,
// build-consistent exception to the bitwise rule above (the parallel
// reduction in ParSignedMeans already varies the order with GOMAXPROCS).
//
//go:noescape
func signedMeansKernel(v *float32, n int) (sp, sn float64, nNeg int64)

// signedShiftKernel is SignedShift over n elements: the sign class of each
// lane is the ordered compare 0 <= x (true for −0.0, false for NaN — Go's
// x >= 0), and the mask blends the per-class constants, so there is no
// branch to mispredict.
//
//go:noescape
func signedShiftKernel(v *float32, n int, subPos, subNeg, addPos, addNeg float32)

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

func vecAbsMax(v Vec) float32 {
	if len(v) >= simdMinLen {
		return absMaxKernel(&v[0], len(v))
	}
	return absMaxScalar(v)
}

// signedMeansArch reduces the longest multiple-of-4 prefix of v with the
// vector kernel, returning the partial sums, the non-negative count over the
// prefix, and the prefix length consumed (0 when v is too short to benefit);
// the caller folds in the tail sequentially.
func signedMeansArch(v []float32) (sp, sn float64, np, done int) {
	if len(v) < simdMinLen {
		return 0, 0, 0, 0
	}
	done = len(v) &^ 3
	var nneg int64
	sp, sn, nneg = signedMeansKernel(&v[0], done)
	np = done - int(nneg)
	return sp, sn, np, done
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

func vecSignedShift(v Vec, subPos, subNeg, addPos, addNeg float32) {
	if len(v) >= simdMinLen {
		signedShiftKernel(&v[0], len(v), subPos, subNeg, addPos, addNeg)
		return
	}
	signedShiftScalar(v, subPos, subNeg, addPos, addNeg)
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
