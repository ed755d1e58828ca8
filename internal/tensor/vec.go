package tensor

import (
	"math"
	"runtime"
	"sync"
)

// Vec is a dense float32 vector. Gradients, weights and activations are all
// Vecs; the distributed algorithms in this repository operate on flattened
// parameter vectors exactly as the paper's Algorithm 1 does.
type Vec = []float32

// NewVec allocates a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Zero sets every element of v to 0 in place.
func Zero(v Vec) {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to c in place.
func Fill(v Vec, c float32) {
	for i := range v {
		v[i] = c
	}
}

// Clone returns a copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Add computes dst[i] += src[i]. Panics when lengths differ.
// Dispatches to the SSE2 kernel on amd64 (see simd_amd64.go); per-lane adds
// keep the result bitwise identical to the scalar loop.
func Add(dst, src Vec) {
	checkLen(len(dst), len(src))
	vecAdd(dst, src)
}

func addScalar(dst, src Vec) {
	for i, s := range src {
		dst[i] += s
	}
}

// Sub computes dst[i] -= src[i]. Panics when lengths differ.
func Sub(dst, src Vec) {
	checkLen(len(dst), len(src))
	for i, s := range src {
		dst[i] -= s
	}
}

// Mul computes dst[i] *= src[i]. Panics when lengths differ.
func Mul(dst, src Vec) {
	checkLen(len(dst), len(src))
	for i, s := range src {
		dst[i] *= s
	}
}

// Scale computes v[i] *= c in place (SIMD-dispatched, bitwise identical).
func Scale(v Vec, c float32) {
	vecScale(v, c)
}

func scaleScalar(v Vec, c float32) {
	for i := range v {
		v[i] *= c
	}
}

// AXPY computes dst[i] += a*src[i] (the BLAS axpy kernel). The SIMD path
// multiplies then adds with two roundings — no FMA — matching the scalar
// loop bit for bit.
func AXPY(dst Vec, a float32, src Vec) {
	checkLen(len(dst), len(src))
	vecAXPY(dst, a, src)
}

func axpyScalar(dst Vec, a float32, src Vec) {
	for i, s := range src {
		dst[i] += a * s
	}
}

// Dot returns the inner product <a, b> accumulated in float64 for stability.
func Dot(a, b Vec) float64 {
	checkLen(len(a), len(b))
	var s float64
	for i, x := range a {
		s += float64(x) * float64(b[i])
	}
	return s
}

// Sum returns the float64-accumulated sum of v.
func Sum(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// Norm2 returns the l2 norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// AbsMax returns max_i |v[i]|, or 0 for an empty vector. max is exact, so
// the lane-parallel SIMD reduction returns the same bits as this scan for
// finite inputs.
func AbsMax(v Vec) float32 {
	return vecAbsMax(v)
}

func absMaxScalar(v Vec) float32 {
	var m float32
	for _, x := range v {
		a := x
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// MaxIdx returns the index of the maximum element (first on ties) or -1 for
// an empty vector. Used for top-1 classification accuracy.
func MaxIdx(v Vec) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// SignedMeans computes the paper's two-level statistics in one pass:
// muPos = mean(v_i | v_i >= 0) and muNeg = mean(|v_i| | v_i < 0).
// When a side is empty its mean is 0 (the natural neutral element for the
// enc operator). nPos reports how many entries were non-negative.
func SignedMeans(v Vec) (muPos, muNeg float32, nPos int) {
	sp, sn, np := signedMeansAccum(v)
	if np > 0 {
		muPos = float32(sp / float64(np))
	}
	if nn := len(v) - np; nn > 0 {
		muNeg = float32(sn / float64(nn))
	}
	return muPos, muNeg, np
}

// signedMeansAccum is the shared reduction body of SignedMeans and the
// ParSignedMeans chunk workers: the vector kernel (where compiled in) covers
// the aligned prefix and the sequential loop folds in the tail.
func signedMeansAccum(v Vec) (sp, sn float64, np int) {
	var done int
	sp, sn, np, done = signedMeansArch(v)
	for _, x := range v[done:] {
		if x >= 0 {
			sp += float64(x)
			np++
		} else {
			sn -= float64(x)
		}
	}
	return sp, sn, np
}

// SignedShift rewrites v in place by the sign class of each element:
//
//	v[i] = (v[i] − subPos) + addPos   where v[i] ≥ 0
//	v[i] = (v[i] + subNeg) − addNeg   otherwise
//
// Each branch is two float32 roundings in the order written. The predicate is
// Go's x >= 0: −0.0 takes the first branch and NaN the second (it stays NaN;
// NaN payload bits are not part of the contract). This is A2SGD's whole
// reconstruction — subtract the local signed mean, add the global one — as a
// single read-modify-write pass, branch-free on every build.
func SignedShift(v Vec, subPos, subNeg, addPos, addNeg float32) {
	vecSignedShift(v, subPos, subNeg, addPos, addNeg)
}

// signedShiftScalar selects the constants by index instead of branching: on
// a zero-centred gradient the sign branch mispredicts every other element.
// x − (−s) is x + s exactly under IEEE 754, so folding the negative class's
// signs into the table keeps both roundings.
func signedShiftScalar(v Vec, subPos, subNeg, addPos, addNeg float32) {
	sub := [2]float32{subPos, -subNeg}
	add := [2]float32{addPos, -addNeg}
	for i, x := range v {
		k := 1
		if x >= 0 {
			k = 0
		}
		v[i] = (x - sub[k]) + add[k]
	}
}

// HasNaNOrInf reports whether any element is NaN or ±Inf. The training
// runtime uses it for failure injection tests and gradient health checks.
func HasNaNOrInf(v Vec) bool {
	for _, x := range v {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

func checkLen(a, b int) {
	if a != b {
		panic("tensor: vector length mismatch")
	}
}

// ---- parallel helpers ----

// maxProcs bounds the fan-out of ParSignedMeans. It is read per call (not
// captured at package init) so later runtime.GOMAXPROCS changes — and tests
// that restrict parallelism — are honored.
func maxProcs() int { return runtime.GOMAXPROCS(0) }

// grainSize is the minimum number of elements worth a goroutine.
const grainSize = 1 << 14

// signedMeansPart is one worker's partial reduction for ParSignedMeans.
type signedMeansPart struct {
	sp, sn float64
	np     int
}

// signedMeansWorker reduces one chunk into *out. It is a named function (not
// a closure) so the goroutine fan-out copies its arguments instead of
// heap-allocating a capture — part of the hot path's allocation discipline.
func signedMeansWorker(v Vec, out *signedMeansPart, wg *sync.WaitGroup) {
	defer wg.Done()
	sp, sn, np := signedMeansAccum(v)
	*out = signedMeansPart{sp, sn, np}
}

// ParSignedMeans is SignedMeans with a parallel reduction; used on the
// paper-scale vectors (up to 100 M elements) in Figure 2 and Table 2.
// With one worker (GOMAXPROCS=1 or a short vector) it is allocation-free;
// the parallel fan-out costs one partials slice per call.
func ParSignedMeans(v Vec) (muPos, muNeg float32, nPos int) {
	n := len(v)
	workers := maxProcs()
	if n < 4*grainSize || workers <= 1 {
		return SignedMeans(v)
	}
	parts := make([]signedMeansPart, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go signedMeansWorker(v[lo:hi], &parts[w], &wg)
	}
	wg.Wait()
	var sp, sn float64
	np := 0
	for _, p := range parts {
		sp += p.sp
		sn += p.sn
		np += p.np
	}
	if np > 0 {
		muPos = float32(sp / float64(np))
	}
	if nn := n - np; nn > 0 {
		muNeg = float32(sn / float64(nn))
	}
	return muPos, muNeg, np
}
