// Package tensor provides the dense float32 math kernels that every other
// package in this repository builds on: vectors, matrices, elementwise and
// reduction kernels, a parallel-for helper, and a fast deterministic RNG.
//
// The kernels are deliberately simple, allocation-conscious and cache
// friendly; they are the CPU stand-in for the GPU tensor runtime (PyTorch)
// used by the paper. All heavy operations have both a serial and a parallel
// path and are covered by reference-comparison tests.
//
// # Matrix products
//
// Every product is one strided Gemm (gemm.go): operands are Views — a row
// stride and a column stride over float32 storage, so a transpose or a
// sub-matrix is a pair of numbers, not a code path — and MatMul, MatMulATB
// and MatMulABT are three one-line wrappers over it. Its arithmetic is a
// specification, not an implementation detail, because training results are
// compared bit for bit across builds and across PRs:
//
//	Every output element is one float32 accumulator that starts at +0 and
//	takes the terms a(i,p)·b(p,j) for p ascending, each a separately
//	rounded float32 multiply and add; GemmAdd then adds the finished sum
//	to dst with one float32 add. No fused multiply-add, no wider
//	accumulator, no partial sums, no skipped terms.
//
// GemmAddSegmented cuts the reduction into segments of a fixed length and
// gives the bits of one GemmAdd per segment, in order: each segment's sum
// from +0, added to dst with one float32 add. It is the per-sample
// association of a convolution's weight gradient as one call per layer.
//
// There is one precision for every product; a term's two factors commute,
// so the sums do not depend on which operand is A. A change that fuses the
// multiply, widens the accumulator or splits a sum across vector lanes
// changes that paragraph, the golden digests in internal/models and the
// oracle in gemm_test.go together, with its own accuracy evidence (the
// figures gate in internal/bench). Everything else — the 4×8/4×16/4×32
// register tile, packing, the AVX and AVX-512 micro-kernels and the AVX
// packer (gemm_amd64.s), the portable kernel used under the purego tag, on
// other architectures and on amd64 CPUs without AVX, row-parallelism for
// very large products — only reschedules those operations and is tested to
// give identical bits. One micro-kernel call runs every full row tile of a
// column panel, each over a list of segments, clearing its accumulators at
// a segment's start and adding them to C at its end; Gemm and GemmAdd are
// the one-segment case. A ragged last column panel runs the variant's
// narrower kernels, widest first, on C and B in place (a 4×32 variant
// covers 27 columns as 16 + 8 + 3); fewer than 8 leftover lanes, and the
// rows of a ragged A edge, run through a scratch tile, loaded from C first
// when the product adds.
//
// The kernel reads A in place through both of its strides and B a row of
// tile columns at a time. A B operand whose columns are not contiguous — the
// transposed operand of every a·bᵀ product — is packed into panels first:
// lane l (a column of B) of reduction step p at [p·width + l], width the
// variant's 8, 16 or 32, +0 in the lanes past the operand's edge; a ragged
// A edge is packed the same way, 4 lanes wide, and the leftover lanes of an
// in-place B 8 wide. Packing is an exact copy: the vector variants pack
// lanes that run contiguous along the reduction with a
// vector packer (four lanes by four steps, transposed in registers) held to
// the portable pack32 bit for bit. A caller that multiplies by one
// transposed operand many times (the LSTM's recurrent weights) copies it to
// row-major once instead. A packed product of several segments packs its B
// panel a chunk of whole segments at a time, about 256 steps (16 KB at 16
// lanes, 32 KB at 32), so the panel stays in L1 while every row tile reads
// it.
//
// # Reduction specification
//
// The signed means of A2SGD (SignedMeans, ParSignedMeans and the VecView
// methods of those names) are the package's one float reduction whose order
// is not a single running sum, so that order is written here and every build
// computes exactly it:
//
//	The unit is a contiguous segment: a vector, or one segment of a view.
//	Its triple (Σ⁺, Σ⁻, n⁻) classifies each element by Go's x >= 0 (−0.0 is
//	non-negative, NaN negative — SignedShift's rule): Σ⁺ sums the x of the
//	non-negative class, Σ⁻ the −x of the negative one, n⁻ counts the
//	latter, all sums in float64 of the exactly converted float32. The
//	segment is cut into blocks of B = 65 536 elements (the last may be
//	shorter). Inside a block, element i of each full group of L = 8 adds
//	into lane i mod L of its class, every lane starting at +0; the L lanes
//	fold by the halving tree — l[j] + l[j+4] for j < 4, then l[j] + l[j+2]
//	for j < 2, then l[0] + l[1] — and the fewer than L elements after the
//	last full group are then added to that scalar in ascending order.
//	Blocks fold ascending into the segment's triple, segments ascending into
//	the view's, each fold a running sum from +0. The means are
//	float32(Σ⁺ / n⁺) and float32(Σ⁻ / n⁻), 0 for an empty class.
//
// L, B and the length past which ParSignedMeans hands blocks to several
// goroutines are constants (meansLanes, meansBlock, meansParMin in vec.go),
// never derived from the length, the CPU or GOMAXPROCS; a block's triple does
// not depend on who reduces it and the caller folds the triples in order, so
// the portable code, the AVX2 kernel (CPUID-selected), the parallel and the
// serial entry points give the same bits, and a one-segment view
// gives the bits of the flat vector. A different segmentation of the same
// elements is a different sum. A wider lane count, a fused or float32
// accumulation, a compensated or binned sum changes that paragraph, the
// oracle and the pinned triples in means_test.go and the digest in
// internal/core together, with its own accuracy evidence.
//
// # Transcendentals
//
// Sigmoid, Tanh and ExpShift (trans.go) are specified by the scalar
// expressions their doc comments name — float32(1/(1+math.Exp(−x))),
// float32(math.Tanh(x)) and math.Exp(float64(x−m)), each over the exactly
// converted float64 of its float32 argument — and give those bits on every
// build, NaN for NaN. On amd64 with AVX2 and FMA (CPUID, read once) kernels
// compute four float64 lanes to a YMM register — eight to a ZMM register
// when the CPU has AVX512F as well — Sigmoid's and Tanh's two registers to
// a block, ExpShift's one. LSTMCell (layer.go) runs Sigmoid and Tanh on
// each row's gate sections and on the new cell state.
//
// Sigmoid and Tanh: a rounding test. Both map a float32 to a float32, so a
// float64 value close enough to the reference's rounds to the same float32
// unless it lies near a rounding midpoint (Ziv's rounding test). Each lane
// computes a division-free approximation F (trans_amd64.s): exp by the
// reduction k = round(a·log2e), r = a − k·LN2U − k·LN2L, and expm1(r) as
// the degree-13 Taylor polynomial (even and odd halves by Horner in r²),
// scaled by 2^k; sigmoid as 1/(1 + e^−x) with −x clamped to [−40, 88];
// tanh as −em/(2 + em), em = expm1(−2z), z = min(|x|, 20), with the sign
// of x; each reciprocal a hardware estimate refined by Newton steps. The
// clamps change nothing that reaches float32: σ is 1 in float64 above 40
// and below 2⁻¹²⁶ under −87.4, tanh is ±1 in float64 beyond 19.1. Written
// out, F's relative error is below ε_fast = 16·2⁻⁵³ (truncation 0.13, the
// reduction 1.2, the polynomial's roundings 3, the assembly of d 2 and the
// reciprocal 1.2 units of 2⁻⁵³ on the way to tanh's quotient, the larger
// of the two), and the reference's own, with math.Exp below 1 ulp and
// three roundings after it, below ε_ref = 8·2⁻⁵³; measured, F is within 4
// float64 ulps of the reference on every argument. So F and the
// reference's float64 value lie within 24 ulps of each other, and a lane
// whose F is more than a margin of 512 ulps from a midpoint — the 29 low
// bits of its pattern, which float32 rounding drops, more than 512 from
// 2²⁸ — rounds as the reference does. The margin is a bound on the
// distance, not on which math.Exp computed the reference, so it covers
// both of math.Exp's amd64 paths (FMA, and the one GODEBUG=cpu.fma=off
// selects): Sigmoid and Tanh need no probe. A lane falls back when its F is
// within the margin, when its result is below 2⁻¹²⁶ (float32's subnormals
// round on a coarser grid), or when its argument is NaN; a block holding
// such a lane goes through the scalar expression. Of the 2³² arguments,
// 2 236 have a Sigmoid reference and 516 a Tanh reference within the
// margin. TestTransExhaustive (build tag exhaustive,
// a CI step) is the proof: every variant against the scalar expressions on
// all 2³² float32 arguments, with and without GODEBUG=cpu.fma=off.
//
// ExpShift: the operations Go's math package runs for one argument,
//
//	k = round-to-nearest-even(x·log2e) as an int32; x − k·LN2U and
//	then − k·LN2L, each one fused multiply-add; ×1/16; the Taylor
//	polynomial c8…c3, 1/2, 1 by Horner, seven fused multiply-adds; x·p;
//	x ← x·(x+2) three times; x·(x+2)+1 fused; ×2^k, built as
//	(k + 0x3FF) ≪ 52.
//
// That is math.Exp's amd64 FMA path, which Go takes when CPUID reports AVX
// and FMA. GODEBUG=cpu.fma=off (or cpu.avx=off) moves math.Exp off it; a
// four-argument probe of each kernel at start-up sees that and leaves
// ExpShift's kernels off. A block whose exp argument holds a NaN or a lane
// beyond ±700 — where math.Exp's overflow, denormal and non-finite cases
// live — goes through the scalar expression.
//
// The tail, and every block on any other CPU, under the purego tag and on
// other architectures, runs the scalar expressions. They call math, whose
// portable bodies differ from amd64's assembly in the last bit, so these
// results are pinned per architecture, not across architectures.
//
// # Layer kernels
//
// ChannelSums, Normalize, NormalizeGrad, MaxPool, ReLU, ReLUGrad, MaskCopy,
// MaskAdd, AddBias, LSTMGateGrad and SoftmaxRows (layer.go) are nn's
// batch-norm, pooling, rectifier, convolution-lowering, LSTM-backward and
// softmax-loss loops, each specified by its doc comment and its portable
// loop: a channel's sums are
// float64 running sums from +0 in (row, element) order of the exactly
// converted values and exact products; the batch-norm elementwise passes are
// float32 with every operation rounded, in the order written, NormalizeGrad's
// k = γ·inv/n once per channel; the pool takes a window's elements in
// row-major order against a best from −Inf with a strict >, so the first
// maximal element wins, NaN never does, and a window with nothing above −Inf
// gives −Inf at its first element; ReLU and its gradient and the pad
// masks' AND work on bit patterns; the masked add and the bias add are one
// float32 add per element; the LSTM gate gradient is float32 with every
// operation rounded, in the order written; the softmax takes a row's
// maximum by a strict > from its first element, sums its float64
// exponentials (ExpShift) from +0 in ascending column order, takes one
// math.Log, and rounds each quotient e/sum to float32 before the label's
// −1 and the scale. SoftmaxRows takes rows four at a time (SoftmaxBlock) so
// that four rows' sums run as separate chains in one loop; each row's sum
// keeps its order. On amd64 with AVX2 and FMA (CPUID, read once) kernels
// (layer_amd64.s) give those bits:
//
//	sums: four channels in the four float64 lanes of a register, four
//	elements of each transposed into place, so each channel's chain keeps
//	its order; Σa by add, Σa·b by fused multiply-add of the exact product.
//	Channels past the last multiple of four run the portable loop.
//	Normalize, NormalizeGrad: eight float32 lanes, the scalar loop's
//	multiplies and adds, separate, in its order; a run's tail under a mask.
//	2×2 pool: eight outputs to a register, each lane the scalar loop's four
//	compares (VCMPPS GT_OQ: false on NaN) and blends of the value and the
//	index. Other k, images whose width is not a multiple of 8 and the last
//	four outputs of a group run the portable loop.
//	ReLU: pattern + 0x7fffffff < 0xff800000 as signed integers, the
//	unsigned compare of pattern − 1 with +Inf's; ReLUGrad: output ≠ 0.
//	MaskCopy, MaskAdd: eight elements AND eight words of a periodic mask
//	(VANDPS), stored or added with one float32 add; the mask offset wraps
//	at its period, which must be a multiple of 8 (otherwise, and for the
//	last n mod 8 elements, the portable loop runs).
//	AddBias: v + b eight lanes at a time; a run's tail under a mask.
//	LSTMGateGrad: one call per time step over its rows, eight elements of
//	a row to a register, the scalar loop's multiplies, adds and subtracts,
//	separate, in its order; a row's tail under a mask.
//	SoftmaxRows: the row maximum by VMAXPS over groups of eight (the last
//	group overlapping the one before it), taken only when the row holds no
//	NaN and the maximum is not ±0, where every element equal to it has its
//	bits; otherwise, and for rows under 8 wide, the portable loop. The
//	gradient of each group of eight columns is a VDIVPD of the float64
//	exponentials by the sum, rounded to float32 by VCVTPD2PS and multiplied
//	by the scale; the label's column is then rewritten by the scalar
//	expression, and the last cols mod 8 columns run the portable loop.
//
// Under the purego tag, on other architectures and on CPUs without AVX2 or
// FMA the portable loops run. As for Gemm, which of two NaN operands a
// batch-norm or LSTM gate-gradient result carries is not specified;
// everything else, arg-max indices included, is bit for bit.
//
// # Random variates
//
// RNG is xoshiro256**, and every variate is a function of its draws. Norm is
// Marsaglia and Bray's polar method, written out because training results
// are compared bit for bit:
//
//	Draw u = 2·F − 1, then v = 2·F − 1, with F = float64(x≫11)·2⁻⁵³ for the
//	next 64-bit output x (F is Float64); s = u·u + v·v, each product and
//	the sum rounded to float64. Accept the pair when 0 < s < 1, the open
//	disc; otherwise draw the next pair. The variate is
//	float32(u·√(−2·ln s / s)), ln being math.Log, each operation rounded to
//	float64. v is discarded.
//
// NormVec(dst, mean, std) sets dst[i] = mean + float32(std·z) for the i-th z
// of the loop of Norm calls, the product and the sum each rounded to
// float32, and leaves the generator in that loop's final state. It draws
// with the state in locals and keeps the u and s of each pair, which the
// next pair overwrites unless it was accepted, so the draw does not branch
// on acceptance; then it transforms the accepted pairs, a chunk at a time.
// On amd64 with AVX2 (CPUID, read once) a kernel transforms four float64
// lanes at a time: its logarithm is the operation sequence of Go's amd64
// math.Log (archLog: frexp by bit masks, one divide, the two Horner
// polynomials in s⁴, no fused multiply-add, no table), followed by the
// multiply by −2, the divide by s, the square root, the multiply by u, the
// conversion to float32 and the float32 multiply by std and add of mean.
// The tail and every other build run the scalar expression. Since s ≥ 2⁻¹⁰⁴
// is never subnormal, zero or beyond 1, none of archLog's special cases
// arises.
package tensor

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**). Each worker in the distributed runtime
// owns one RNG so that runs are reproducible for any interleaving of
// goroutines. It is not safe for concurrent use; clone per goroutine.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed across the state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives a new independent generator; useful to hand one RNG to each
// worker from a single experiment seed.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// State returns the generator's internal 256-bit state, so a checkpoint can
// capture the stream position and SetState can resume it exactly: after a
// round-trip the generator produces the identical draw sequence it would have
// produced uninterrupted.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State.
func (r *RNG) SetState(s [4]uint64) { r.s = s }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Vec fills dst with iid U[0,1) samples, consuming exactly
// len(dst) generator draws in sequence — element i equals what the i-th
// Float64 call would have returned. The quantization kernels pre-generate
// their stochastic-rounding variates through this so the vectorized path
// preserves the scalar RNG sequence.
func (r *RNG) Float64Vec(dst []float64) {
	for i := range dst {
		dst[i] = float64(r.Uint64()>>11) * (1.0 / (1 << 53))
	}
}

// Norm returns a standard normal variate by Marsaglia's polar method: it
// draws pairs (u, v) uniform on [−1, 1)² until one falls strictly inside the
// unit circle (≈ 1.27 pairs expected) and returns one variate from that
// pair. The second variate is discarded, not cached, so the struct stays
// small and every call consumes only its own draws. The package comment
// ("Random variates") writes out the arithmetic.
func (r *RNG) Norm() float32 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return polar(u, s)
		}
	}
}

// polar is the polar method's transform of an accepted pair.
func polar(u, s float64) float32 { return float32(u * math.Sqrt(-2*math.Log(s)/s)) }

// normChunk is how many accepted pairs NormVec draws before it transforms
// them.
const normChunk = 256

// NormVec fills dst with iid N(mean, std²) samples: element i is
// mean + float32(std*z) with z the i-th Norm() a loop over dst would return,
// and the generator ends in that loop's state. It draws the pairs with the
// state in locals and transforms them a chunk at a time (package comment,
// "Random variates").
func (r *RNG) NormVec(dst []float32, mean, std float32) {
	var us, ss [normChunk]float64
	for len(dst) > 0 {
		n := min(len(dst), normChunk)
		r.polarPairs(us[:n], ss[:n])
		normVec(dst[:n], us[:n], ss[:n], mean, std)
		dst = dst[n:]
	}
}

// polarPairs fills us and ss with the u and s = u² + v² of the next
// len(us) pairs Norm would accept, drawing exactly the pairs Norm draws. A
// pair is stored whether or not it is accepted, and the next one overwrites
// it unless it was, so the loop does not branch on acceptance.
func (r *RNG) polarPairs(us, ss []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	ss = ss[:len(us)]
	for j := 0; j < len(us); {
		x := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		y := bits.RotateLeft64(s1*5, 7) * 9
		t = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		// Norm's 2·F − 1, which is exactly (x≫11 − 2⁵²)·2⁻⁵²: flipping the
		// top bit and shifting arithmetically subtracts the 2⁵².
		u := float64(int64(x^(1<<63))>>11) * 0x1p-52
		v := float64(int64(y^(1<<63))>>11) * 0x1p-52
		s := float64(u*u) + float64(v*v)
		us[j], ss[j] = u, s
		// 0 < s < 1 on the bits of s ≥ 0: a = bits − 1 is below those of
		// 1.0 − 1 exactly then, and wraps to a set top bit when s is +0.
		a := math.Float64bits(s) - 1
		j += int(((a - (0x3FF0000000000000 - 1)) &^ a) >> 63)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// normScalar sets dst[i] = mean + float32(std*polar(us[i], ss[i])).
func normScalar(dst []float32, us, ss []float64, mean, std float32) {
	for i := range dst {
		dst[i] = mean + float32(std*polar(us[i], ss[i]))
	}
}

// UniformVec fills dst with iid U[lo, hi) samples.
func (r *RNG) UniformVec(dst []float32, lo, hi float32) {
	w := hi - lo
	for i := range dst {
		dst[i] = lo + w*r.Float32()
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf returns samples from a Zipf-Mandelbrot-like distribution over
// [0, n) with exponent s > 0: P(k) ∝ 1/(k+1)^s. Used by the PTB-like
// synthetic corpus; implemented with a cached inverse CDF for speed.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a sampler over n items with exponent s. rng feeds Next and
// may be nil for a sampler used through Draw only.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("tensor: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next draws one sample from the sampler's own RNG.
func (z *Zipf) Next() int { return z.Draw(z.rng) }

// Draw draws one sample using rng — one Float64 — via binary search over the
// CDF. The table is read-only after NewZipf, so one sampler serves any
// number of streams.
func (z *Zipf) Draw(rng *RNG) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
