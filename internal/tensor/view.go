package tensor

import "math"

// VecView is a strided multi-segment view over a flattened float32 vector:
// an ordered list of []float32 segments that together form one logical
// vector of length Len(). Gradient buckets that span parameter-tensor
// boundaries are the motivating case — the compression algorithms encode
// from and reconstruct into the layers' live gradient storage through a
// view, so no bucket ever pays a gather copy before encode or a scatter
// copy after decode (ARCHITECTURE.md "Memory discipline & hot path").
//
// A view holds references to the segments, never copies of them; segment
// contents may change between operations (they are live gradients), but the
// segment *structure* is fixed between Reset calls. Sum and Norm2
// thread a single scalar accumulator through the segments in order, so a
// multi-segment view reduces bitwise-identically to the flat vector it
// represents; SignedMeans follows the package's reduction specification, of
// which the segment is the unit.
type VecView struct {
	segs [][]float32
	off  []int // off[i] = flattened start offset of segs[i]
	n    int
}

// NewVecView builds a view over segs in order. Empty segments are dropped.
func NewVecView(segs ...[]float32) *VecView {
	v := &VecView{}
	return v.Reset(segs)
}

// Reset rebuilds the view in place over segs (dropping empty segments) and
// returns it. The segment and offset slices are recycled, so a warm Reset
// with no more segments than the high-water count does not allocate.
func (v *VecView) Reset(segs [][]float32) *VecView {
	v.segs = v.segs[:0]
	v.off = v.off[:0]
	v.n = 0
	for _, s := range segs {
		if len(s) == 0 {
			continue
		}
		v.segs = append(v.segs, s)
		v.off = append(v.off, v.n)
		v.n += len(s)
	}
	return v
}

// Reset1 rebuilds the view as a single contiguous segment (the flat-vector
// adapter case) and returns it. Allocation-free after the first call.
func (v *VecView) Reset1(s []float32) *VecView {
	v.segs = append(v.segs[:0], s)
	v.off = append(v.off[:0], 0)
	v.n = len(s)
	if len(s) == 0 {
		v.segs = v.segs[:0]
		v.off = v.off[:0]
	}
	return v
}

// Len returns the flattened length of the view.
func (v *VecView) Len() int { return v.n }

// Segments returns the ordered segment list. Callers may mutate element
// values (the segments alias live storage) but must not restructure the
// returned slice.
func (v *VecView) Segments() [][]float32 { return v.segs }

// Offsets returns the flattened start offset of each segment, parallel to
// Segments(). Same aliasing rules as Segments.
func (v *VecView) Offsets() []int { return v.off }

// Contiguous returns the backing slice when the view is a single segment
// (or empty), and nil for a genuinely strided view — the fast-path test for
// algorithms with a flat-vector kernel.
func (v *VecView) Contiguous() []float32 {
	switch len(v.segs) {
	case 0:
		return nil
	case 1:
		return v.segs[0]
	}
	return nil
}

// SliceView writes the sub-view covering flattened span [lo, hi) into dst
// (recycling dst's slices, so a warm call does not allocate) and returns
// dst. Boundary segments are sub-sliced; hi is clamped to Len().
func (v *VecView) SliceView(lo, hi int, dst *VecView) *VecView {
	dst.segs = dst.segs[:0]
	dst.off = dst.off[:0]
	dst.n = 0
	if hi > v.n {
		hi = v.n
	}
	if lo < 0 || lo >= hi {
		return dst
	}
	for s := v.segAt(lo); s < len(v.segs) && v.off[s] < hi; s++ {
		seg := v.segs[s]
		a, b := 0, len(seg)
		if v.off[s] < lo {
			a = lo - v.off[s]
		}
		if v.off[s]+len(seg) > hi {
			b = hi - v.off[s]
		}
		dst.segs = append(dst.segs, seg[a:b])
		dst.off = append(dst.off, dst.n)
		dst.n += b - a
	}
	return dst
}

// segAt returns the index of the segment containing flattened offset i
// (binary search over the offset table).
func (v *VecView) segAt(i int) int {
	lo, hi := 0, len(v.segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if v.off[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// At returns the element at flattened offset i.
func (v *VecView) At(i int) float32 {
	s := v.segAt(i)
	return v.segs[s][i-v.off[s]]
}

// AddAt adds x to the element at flattened offset i — the scatter-add used
// by the sparse exchange paths. Repeated adds to the same index accumulate
// in call order, exactly like the flat g[i] += x loop.
func (v *VecView) AddAt(i int, x float32) {
	s := v.segAt(i)
	v.segs[s][i-v.off[s]] += x
}

// Zero sets every element to 0.
func (v *VecView) Zero() {
	for _, s := range v.segs {
		Zero(s)
	}
}

// CopyTo copies the view's elements into dst[0:Len()].
func (v *VecView) CopyTo(dst []float32) {
	checkLen(len(dst), v.n)
	for i, s := range v.segs {
		copy(dst[v.off[i]:], s)
	}
}

// CopyFrom copies src[0:Len()] into the view's segments.
func (v *VecView) CopyFrom(src []float32) {
	checkLen(len(src), v.n)
	for i, s := range v.segs {
		copy(s, src[v.off[i]:v.off[i]+len(s)])
	}
}

// AddInto computes dst[i] += v[i] over the flattened index space — per-lane,
// bitwise identical to adding the flat vector.
func (v *VecView) AddInto(dst []float32) {
	checkLen(len(dst), v.n)
	for i, s := range v.segs {
		Add(dst[v.off[i]:v.off[i]+len(s)], s)
	}
}

// AXPY computes v[i] += a*src[i] over the flattened index space (the error
// feedback / decode-average kernel, per-lane and bitwise-flat).
func (v *VecView) AXPY(a float32, src []float32) {
	checkLen(len(src), v.n)
	for i, s := range v.segs {
		AXPY(s, a, src[v.off[i]:v.off[i]+len(s)])
	}
}

// Sum returns the float64-accumulated sum, threading one accumulator
// through the segments in order — bitwise identical to Sum on the flat
// vector.
func (v *VecView) Sum() float64 {
	var acc float64
	for _, s := range v.segs {
		for _, x := range s {
			acc += float64(x)
		}
	}
	return acc
}

// Norm2 returns the l2 norm with the same sequential float64 accumulation
// as Norm2 on the flat vector.
func (v *VecView) Norm2() float64 {
	var acc float64
	for _, s := range v.segs {
		for _, x := range s {
			acc += float64(x) * float64(x)
		}
	}
	return math.Sqrt(acc)
}

// SignedMeans computes the paper's two-level statistics over the view in the
// order of the reduction specification (package comment): each segment
// reduces as SignedMeans reduces a vector, and the per-segment triples fold
// ascending. A single-segment view is therefore bitwise identical to
// SignedMeans on the flat vector; a multi-segment view is identical on every
// build and at every GOMAXPROCS, though not to a different segmentation of
// the same elements.
func (v *VecView) SignedMeans() (muPos, muNeg float32, nPos int) {
	return v.signedMeans(signedSegment)
}

// ParSignedMeans is SignedMeans, bit for bit, with the blocks of long
// segments (paper-scale whole-model vectors) reduced in parallel.
func (v *VecView) ParSignedMeans() (muPos, muNeg float32, nPos int) {
	return v.signedMeans(signedSegmentPar)
}

func (v *VecView) signedMeans(segment func([]float32) (sp, sn float64, nNeg int)) (muPos, muNeg float32, nPos int) {
	var sp, sn float64
	nNeg := 0
	for _, s := range v.segs {
		ssp, ssn, snn := segment(s)
		sp += ssp
		sn += ssn
		nNeg += snn
	}
	return signedMeansOf(sp, sn, v.n, nNeg)
}

// SignedShift applies SignedShift to every segment — per-lane, so the
// segmentation does not change a single bit of the result.
func (v *VecView) SignedShift(subPos, subNeg, addPos, addNeg float32) {
	for _, s := range v.segs {
		SignedShift(s, subPos, subNeg, addPos, addNeg)
	}
}

// HasNaNOrInf reports whether any element is NaN or ±Inf.
func (v *VecView) HasNaNOrInf() bool {
	for _, s := range v.segs {
		if HasNaNOrInf(s) {
			return true
		}
	}
	return false
}
