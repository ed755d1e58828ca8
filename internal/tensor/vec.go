package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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

// The float32 conversion rounds the product on its own, as the vector
// kernels do; without it an arm64 compiler fuses it into the add.
func axpyScalar(dst Vec, a float32, src Vec) {
	for i, s := range src {
		dst[i] += float32(a * s)
	}
}

// Sum returns the float64-accumulated sum of v.
func Sum(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// Norm2 returns the l2 norm of v. The square of a float32 is exact in
// float64, so the explicit conversion, which keeps an arm64 compiler from
// fusing it into the sum, changes no bit.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += float64(float64(x) * float64(x))
	}
	return math.Sqrt(s)
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

// The constants of the reduction specification (package comment). None of
// them is derived from the length, the CPU or GOMAXPROCS.
const (
	// meansLanes is L: element i of a full group adds into lane i mod L.
	meansLanes = 8
	// meansBlock is B, the elements of one block; a multiple of meansLanes.
	meansBlock = 1 << 16
	// meansParMin is the least a worker of the parallel fold must receive:
	// about 1 ms of the lane kernel. It decides only who reduces a block.
	meansParMin = 1 << 22
)

// signedVariant is one implementation of the inner loops of A2SGD's two
// passes. Every variant computes the same bits; they differ in how many
// elements an instruction handles.
type signedVariant struct {
	name string
	// lanes reduces full groups of meansLanes elements, at most one block:
	// the lane sums of the reduction specification folded to one scalar per
	// class, and the number of elements in the negative class.
	lanes func(v []float32) (sp, sn float64, nNeg int)
	// shift is SignedShift.
	shift func(v Vec, subPos, subNeg, addPos, addNeg float32)
}

var (
	signedPortable = signedVariant{name: "portable", lanes: signedLanesGo, shift: signedShiftScalar}
	// signedActive is the variant in use: the widest this binary can run on
	// this CPU, the last of signedVariants (see the architecture files).
	// Only tests assign it, to run every one of them.
	signedActive = signedVariants()[len(signedVariants())-1]
)

// SignedMeans computes the paper's two-level statistics in one pass:
// muPos = mean(v_i | v_i >= 0) and muNeg = mean(|v_i| | v_i < 0), the sums
// taken in the order of the reduction specification (package comment) with v
// as one segment. When a side is empty its mean is 0 (the natural neutral
// element for the enc operator). nPos reports how many entries were
// non-negative.
func SignedMeans(v Vec) (muPos, muNeg float32, nPos int) {
	sp, sn, nNeg := signedSegment(v)
	return signedMeansOf(sp, sn, len(v), nNeg)
}

// signedMeansOf turns the signed sums of n elements into the two means.
func signedMeansOf(sp, sn float64, n, nNeg int) (muPos, muNeg float32, nPos int) {
	nPos = n - nNeg
	if nPos > 0 {
		muPos = float32(sp / float64(nPos))
	}
	if nNeg > 0 {
		muNeg = float32(sn / float64(nNeg))
	}
	return muPos, muNeg, nPos
}

// signedSegment reduces one segment to its triple (Σ⁺, Σ⁻, n⁻): its blocks
// fold ascending.
func signedSegment(v []float32) (sp, sn float64, nNeg int) {
	for len(v) > 0 {
		b := v[:min(len(v), meansBlock)]
		bp, bn, bc := signedBlock(b)
		sp += bp
		sn += bn
		nNeg += bc
		v = v[len(b):]
	}
	return sp, sn, nNeg
}

// signedBlock reduces one block: the lane kernel over its full groups, then
// the fewer than meansLanes elements left over, ascending.
func signedBlock(v []float32) (sp, sn float64, nNeg int) {
	full := len(v) &^ (meansLanes - 1)
	if full > 0 {
		sp, sn, nNeg = signedActive.lanes(v[:full])
	}
	for _, x := range v[full:] {
		if x >= 0 {
			sp += float64(x)
		} else {
			sn -= float64(x)
			nNeg++
		}
	}
	return sp, sn, nNeg
}

// signedLanesGo is the portable lane kernel: acc[c][i] is lane i of class c
// (0 where x >= 0), and subtracting x is adding −x exactly. Indexing by the
// class keeps the loop free of a branch that a zero-centred gradient would
// mispredict every other element.
func signedLanesGo(v []float32) (sp, sn float64, nNeg int) {
	var acc [2][meansLanes]float64
	sign := [2]float64{1, -1}
	for ; len(v) >= meansLanes; v = v[meansLanes:] {
		for i, x := range (*[meansLanes]float32)(v) {
			c := 1
			if x >= 0 {
				c = 0
			}
			acc[c][i] += sign[c] * float64(x)
			nNeg += c
		}
	}
	for c := range acc {
		l := &acc[c]
		for h := meansLanes / 2; h > 0; h /= 2 {
			for j := 0; j < h; j++ {
				l[j] += l[j+h]
			}
		}
	}
	return acc[0][0], acc[1][0], nNeg
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
	signedActive.shift(v, subPos, subNeg, addPos, addNeg)
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
func HasNaNOrInf(v Vec) bool { return finiteActive.hasNaNOrInf(v) }

// finiteVariant is one implementation of HasNaNOrInf. The vector ones test
// the exponent field, bits & 0x7f800000 == 0x7f800000, which holds exactly
// for NaN and ±Inf; the scalar loop is their reference.
type finiteVariant struct {
	name        string
	hasNaNOrInf func(v Vec) bool
}

var (
	finitePortable = finiteVariant{name: "portable", hasNaNOrInf: hasNaNOrInfScalar}
	// finiteActive is the variant in use: the widest this binary can run on
	// this CPU, the last of finiteVariants (see the architecture files).
	// Only tests assign it, to run every one of them.
	finiteActive = finiteVariants()[len(finiteVariants())-1]
)

func hasNaNOrInfScalar(v Vec) bool {
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

// maxProcs bounds the fan-out of Gemm and ParSignedMeans. It is read per call
// (not captured at package init) so later runtime.GOMAXPROCS changes — and
// tests that restrict parallelism — are honored.
func maxProcs() int { return runtime.GOMAXPROCS(0) }

// signedPart is one block's triple.
type signedPart struct {
	sp, sn float64
	nNeg   int
}

// parMeans is the state of one fanned-out segment reduction. Workers claim
// the blocks of a batch one at a time from next and write each block's triple
// to its own slot of part; the caller folds the slots ascending, so who
// reduced which block cannot reach the result. It is recycled through
// parMeansPool, and run is bound once per value — a go statement on a func
// value without arguments allocates no closure — so a steady-state fan-out
// allocates nothing.
type parMeans struct {
	v    []float32 // the blocks of the batch in flight
	next atomic.Int64
	part [256]signedPart
	wg   sync.WaitGroup
	run  func()
}

var parMeansPool = sync.Pool{New: func() any {
	p := new(parMeans)
	p.run = p.work
	return p
}}

func (p *parMeans) work() {
	defer p.wg.Done()
	for {
		lo := int(p.next.Add(1)-1) * meansBlock
		if lo >= len(p.v) {
			return
		}
		b := p.v[lo:min(lo+meansBlock, len(p.v))]
		q := &p.part[lo/meansBlock]
		q.sp, q.sn, q.nNeg = signedBlock(b)
	}
}

// signedSegmentPar is signedSegment with the blocks reduced by up to
// GOMAXPROCS goroutines, each worth at least meansParMin elements: the same
// block triples folded in the same order, hence the same bits at any
// GOMAXPROCS.
func signedSegmentPar(v []float32) (sp, sn float64, nNeg int) {
	workers := min(maxProcs(), len(v)/meansParMin)
	if workers <= 1 {
		return signedSegment(v)
	}
	p := parMeansPool.Get().(*parMeans)
	for len(v) > 0 {
		p.v = v[:min(len(v), len(p.part)*meansBlock)]
		p.next.Store(0)
		p.wg.Add(workers)
		for w := 1; w < workers; w++ {
			go p.run()
		}
		p.work()
		p.wg.Wait()
		for _, q := range p.part[:(len(p.v)+meansBlock-1)/meansBlock] {
			sp += q.sp
			sn += q.sn
			nNeg += q.nNeg
		}
		v = v[len(p.v):]
	}
	p.v = nil
	parMeansPool.Put(p)
	return sp, sn, nNeg
}

// ParSignedMeans is SignedMeans, bit for bit, with the blocks of a long
// vector reduced in parallel; used on the paper-scale vectors (up to 100 M
// elements) in Figure 2 and Table 2. It allocates nothing in the steady
// state, fanned out or not.
func ParSignedMeans(v Vec) (muPos, muNeg float32, nPos int) {
	sp, sn, nNeg := signedSegmentPar(v)
	return signedMeansOf(sp, sn, len(v), nNeg)
}
