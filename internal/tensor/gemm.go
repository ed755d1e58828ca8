package tensor

import "sync"

// View is a strided window onto float32 storage: element (i, j) of the matrix
// it describes is Data[i*RowStride + j*ColStride]. A transpose swaps the two
// strides and a sub-matrix offsets Data and keeps them, so neither copies an
// element nor needs a code path of its own in Gemm.
type View struct {
	Rows, Cols           int
	RowStride, ColStride int
	Data                 []float32
}

// View returns the row-major view of the whole matrix.
func (m *Mat) View() View {
	return View{Rows: m.Rows, Cols: m.Cols, RowStride: m.Cols, ColStride: 1, Data: m.Data}
}

// T returns the view of mᵀ.
func (m *Mat) T() View { return m.View().T() }

// ViewOf returns the row-major rows×cols view of data (no copy) — MatFrom
// without the Mat.
func ViewOf(rows, cols int, data []float32) View {
	if len(data) != rows*cols {
		panic("tensor: ViewOf length mismatch")
	}
	return View{Rows: rows, Cols: cols, RowStride: cols, ColStride: 1, Data: data}
}

// T returns the view of vᵀ over the same storage.
func (v View) T() View {
	return View{Rows: v.Cols, Cols: v.Rows, RowStride: v.ColStride, ColStride: v.RowStride, Data: v.Data}
}

// ColRange returns the sub-matrix of columns [lo, hi) over the same storage.
func (v View) ColRange(lo, hi int) View {
	if lo < 0 || hi < lo || hi > v.Cols {
		panic("tensor: ColRange out of range")
	}
	if lo < hi {
		v.Data = v.Data[lo*v.ColStride:]
	}
	v.Cols = hi - lo
	return v
}

// check panics unless every element of v lies inside v.Data: the kernels
// address operands by pointer and stride, so this is the bounds check.
func (v View) check() {
	if v.Rows < 0 || v.Cols < 0 || v.RowStride < 0 || v.ColStride < 0 {
		panic("tensor: negative view dimension or stride")
	}
	if v.Rows > 0 && v.Cols > 0 && (v.Rows-1)*v.RowStride+(v.Cols-1)*v.ColStride >= len(v.Data) {
		panic("tensor: view exceeds its storage")
	}
}

// Gemm computes dst = a·b. See GemmAdd for the contract.
func Gemm(dst, a, b View) { gemm(dst, a, b, false, 0) }

// GemmAdd computes dst += a·b.
//
// Arithmetic specification (shared with Gemm, GemmAddSegmented and the
// MatMul wrappers; the sentence a fused-multiply-add or a wider-accumulator
// change would have to rewrite): every output element is ONE float32
// accumulator that starts at +0 and takes the terms a(i,p)·b(p,j) for
// p = 0, 1, …, k−1 in that order, each a separately rounded float32
// multiply and add — acc = float32(acc + float32(a·b)), no FMA; the
// finished sum is stored (Gemm) or added to dst(i,j) with one float32 add
// (GemmAdd). GemmAddSegmented applies this to each segment of the
// reduction in turn: per segment one accumulator from +0 over its steps,
// then one float32 add to dst. Register blocking (a 4×32 or 4×16 tile, and
// at a ragged last panel the narrower 4×16 and 4×8 tiles on dst and b in
// place, the last fewer than 8 columns through a scratch tile), packing,
// chunking a packed panel at segment boundaries, vector width and
// row-parallelism only choose which elements are in flight together — a
// vector lane always holds a different output element, never a partial
// sum — so the vector kernels, the portable kernels and the naive triple
// loop in the tests give the same bits on every build.
//
// No term is skipped: a zero in a still multiplies, so 0 × ±Inf and 0 × NaN
// contribute NaN where the row-AXPY loops this replaced skipped them. On
// finite operands the skip was unobservable (a term ±0 never changes an
// accumulator that starts at +0, and such an accumulator never becomes −0);
// on non-finite ones the NaN now reaches the gradient, where the training
// step's finite check reports it.
//
// dst must be row-major (ColStride 1) and must not overlap a or b. Large
// products are split over output rows across GOMAXPROCS goroutines.
func GemmAdd(dst, a, b View) { gemm(dst, a, b, true, 0) }

// GemmAddSegmented computes dst += a·b with the reduction cut into segments
// of seg steps, which must divide a.Cols. It is, bit for bit, the loop
//
//	for s := 0; s < a.Cols/seg; s++ {
//		GemmAdd(dst, a.ColRange(s·seg, (s+1)·seg), b's rows [s·seg, (s+1)·seg))
//	}
//
// each segment one float32 sum from +0 in GemmAdd's order, added to dst
// with one float32 add, segments in ascending order — Conv2D's weight
// gradient, one segment per sample, as one call per layer. With a.Cols = 0
// there are no segments and dst is left alone.
func GemmAddSegmented(dst, a, b View, seg int) {
	if seg < 1 || a.Cols%seg != 0 {
		panic("tensor: GemmAddSegmented segment does not divide the reduction")
	}
	gemm(dst, a, b, true, seg)
}

// MatMul computes dst = a × b. dst must be pre-allocated with shape
// a.Rows × b.Cols and must not alias a or b.
func MatMul(dst, a, b *Mat) { Gemm(dst.View(), a.View(), b.View()) }

// MatMulATB computes dst = aᵀ × b without materializing the transpose.
// Shapes: a is m×n, b is m×p, dst is n×p.
func MatMulATB(dst, a, b *Mat) { Gemm(dst.View(), a.T(), b.View()) }

// MatMulABT computes dst = a × bᵀ without materializing the transpose.
// Shapes: a is m×n, b is p×n, dst is m×p.
func MatMulABT(dst, a, b *Mat) { Gemm(dst.View(), a.View(), b.T()) }

// Register tile: a micro-kernel produces gemmMR rows by nr columns per call
// from eight accumulator registers, two per row. nr depends on the kernel
// variant (gemmVariant): 8 columns for the portable kernel, 16 for the
// 256-bit one, 32 for the 512-bit one.
const (
	gemmMR    = 4
	gemmMaxNR = 32
)

// gemmVariant is one set of micro-kernels. Every variant computes the same
// bits; they differ in how many output elements a call produces.
type gemmVariant struct {
	name string
	id   int // selects the kernel in gemmKernel32
	nr   int // tile columns
}

var (
	gemmPortable = gemmVariant{name: "portable", id: 0, nr: 8}
	// gemmActive is the variant in use: the widest this binary can run on
	// this CPU, the last of gemmVariants (see the architecture files). Only
	// tests assign it, to run every one of them.
	gemmActive = gemmVariants()[len(gemmVariants())-1]
)

// gemmParMACs is the multiply-add count above which a product is split over
// output rows. It sits above every per-layer product of the reduced models
// (and of a 256³ benchmark multiply), so a training rank never fans out
// inside its own step — its sibling ranks already own the other CPUs.
const gemmParMACs = 1 << 25

// gemmPackRows and gemmPackSpan decide when the driver copies each B panel into
// contiguous scratch before use: when at least gemmPackRows output rows
// reuse it AND its k rows, read in place, span at least gemmPackSpan
// elements of b — so far apart that every reuse misses the TLB and the few
// L1 sets the rows collide in (a 64×4096×576 product runs 2× faster packed).
// Anything smaller reads b in place: every product of the reduced models is
// faster that way, by up to 40 % on the lstm's 16-row ones.
const (
	gemmPackRows = 8 * gemmMR
	gemmPackSpan = 1 << 17
)

// gemmChunkSteps is about how many reduction steps of a packed B panel
// rows packs and consumes at a time when a product has several segments
// (GemmAddSegmented): whole segments of about this many steps, a 16 KB
// panel of 16 lanes (32 KB of 32) that stays in L1 while every row tile
// reads it. A one-segment product packs its whole panel at once.
const gemmChunkSteps = 256

// gemmScratch is one goroutine's packing space, recycled through gemmPool so
// a steady-state product allocates nothing.
type gemmScratch struct {
	a32, b32 []float32
	tile     [gemmMR * gemmMaxNR]float32
}

var gemmPool = sync.Pool{New: func() any { return new(gemmScratch) }}

// grow returns *buf resized to n elements, reallocating only when n exceeds
// every earlier request. The contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// gemm runs dst (+)= a·b over segments of seg reduction steps, or over one
// segment of all of them when seg is 0 (Gemm, GemmAdd).
func gemm(dst, a, b View, add bool, seg int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: Gemm shape mismatch")
	}
	if dst.ColStride != 1 && dst.Cols > 1 {
		panic("tensor: Gemm destination must be row-major")
	}
	dst.check()
	a.check()
	b.check()
	m, n, k := dst.Rows, dst.Cols, a.Cols
	if m == 0 || n == 0 || k == 0 && seg > 0 {
		return
	}
	if k == 0 {
		// The empty sum is +0: stored, or added (which turns a −0 into +0).
		for i := 0; i < m; i++ {
			row := dst.Data[i*dst.RowStride : i*dst.RowStride+n]
			for j := range row {
				if add {
					row[j] += 0
				} else {
					row[j] = 0
				}
			}
		}
		return
	}
	if seg == 0 {
		seg = k
	}
	workers := int64(maxProcs())
	workers = min(workers, int64(m)*int64(n)*int64(k)/gemmParMACs, int64(m/gemmMR))
	if workers <= 1 {
		gemmRows(dst, a, b, add, seg, 0, m)
		return
	}
	// Row ranges are multiples of the register tile so every worker but the
	// last runs full tiles only.
	chunk := (m/gemmMR + int(workers) - 1) / int(workers) * gemmMR
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		wg.Add(1)
		go func(seg, lo, hi int) {
			defer wg.Done()
			gemmRows(dst, a, b, add, seg, lo, hi)
		}(seg, lo, min(lo+chunk, m))
	}
	wg.Wait()
}

// gemmRows computes output rows [lo, hi) on the calling goroutine.
func gemmRows(dst, a, b View, add bool, seg, lo, hi int) {
	s := gemmPool.Get().(*gemmScratch)
	s.rows(hi-lo, dst.Cols, a.Cols, seg, a.Data[lo*a.RowStride:], a.RowStride, a.ColStride, b.Data, b.RowStride, b.ColStride, dst.Data[lo*dst.RowStride:], dst.RowStride, add)
	gemmPool.Put(s)
}

// rows is the driver. Full tiles read a in place (the kernel takes both
// strides of A, so a transpose costs nothing) and b either in place or from
// a packed panel; the ragged A edge goes through a zero-padded packed panel,
// and the rows and columns past the edge through a scratch tile, so the same
// kernels compute them.
//
// Panel layout: a panel of width w holds w lanes (rows of A, columns of B)
// for every step p of the reduction, step-major — lane l of step p at
// [p·w + l] — and +0 in the lanes past the operand's edge. The ragged A
// edge is one panel gemmMR lanes wide, a packed B panel is the variant's
// nr. A panel is an exact copy, so packing never changes a bit of the
// product. A B operand whose columns are not contiguous (ColStride ≠ 1) is
// always packed, one column tile at a time, and each panel serves every row
// tile. A packed product of several segments is packed and consumed in
// chunks of whole segments (gemmChunkSteps); each chunk adds its segments
// to c in order before the next chunk's, so the chunks change no sum.
func (s *gemmScratch) rows(m, n, k, seg int, a []float32, ars, acs int, b []float32, brs, bcs int, c []float32, ldc int, add bool) {
	v := gemmActive
	packB := bcs != 1 || (m >= gemmPackRows && k*brs >= gemmPackSpan)
	chunk := k
	if packB {
		chunk = min(k, max(1, gemmChunkSteps/seg)*seg)
	}
	for p0 := 0; p0 < k; p0 += chunk {
		kc := min(chunk, k-p0)
		ap, bc := a[p0*acs:], b[p0*brs:]
		var aEdge []float32
		if mFull := m &^ (gemmMR - 1); mFull < m {
			aEdge = grow(&s.a32, kc*gemmMR)
			packPanel(v.id, aEdge, gemmMR, ap[mFull*ars:], m-mFull, kc, ars, acs)
		}
		for j := 0; j < n; j += v.nr {
			nr := min(v.nr, n-j)
			bp, bps := bc[j*bcs:], brs
			if packB {
				bp, bps = grow(&s.b32, kc*v.nr), v.nr
				packPanel(v.id, bp, v.nr, bc[j*bcs:], nr, kc, bcs, brs)
			}
			s.panel(v, m, kc/seg, seg, ap, ars, acs, aEdge, bp, bps, packB, c[j:], ldc, nr, add)
		}
	}
}

// panel computes the m rows × nr columns (nr ≤ the variant's nr) of c that
// one column panel of B produces, over segs segments of seg steps. The
// columns go to the variant's kernels widest first — a full panel is one
// call of its nr-lane kernel over every row tile; a ragged last one runs
// the narrower kernels of powers of two down to 8 lanes (a 32-lane variant
// covers 27 columns as 16 + 8 + 3), each on c and on b where they lie, so a
// panel whose width is a multiple of 8 needs neither packing nor the
// scratch tile. Only fewer than 8 leftover columns, and the ragged rows
// past the last full row tile (read from the packed aEdge), go through the
// scratch tile. b's leftover columns are read from the zero-padded packed
// panel (packed), or, when b is read in place, packed into an 8-lane one
// first.
func (s *gemmScratch) panel(v gemmVariant, m, segs, seg int, a []float32, ars, aps int, aEdge, b []float32, bps int, packed bool, c []float32, ldc, nr int, add bool) {
	mFull := m &^ (gemmMR - 1)
	o := 0
	for w := v.nr; w >= 8; w /= 2 {
		if nr-o < w {
			continue
		}
		if mFull > 0 {
			gemmKernel32(v.id, w, mFull/gemmMR, segs, seg, a, ars, aps, b[o:], bps, c[o:], ldc, add)
		}
		if mFull < m {
			s.scratch(v.id, w, segs, seg, aEdge, 1, gemmMR, b[o:], bps, c[mFull*ldc+o:], ldc, m-mFull, w, add)
		}
		o += w
	}
	if o == nr {
		return
	}
	left := nr - o
	b = b[o:]
	if !packed {
		bl := grow(&s.b32, segs*seg*8)
		packPanel(v.id, bl, 8, b, left, segs*seg, 1, bps)
		b, bps = bl, 8
	}
	for i := 0; i < mFull; i += gemmMR {
		s.scratch(v.id, 8, segs, seg, a[i*ars:], ars, aps, b, bps, c[i*ldc+o:], ldc, gemmMR, left, add)
	}
	if mFull < m {
		s.scratch(v.id, 8, segs, seg, aEdge, 1, gemmMR, b, bps, c[mFull*ldc+o:], ldc, m-mFull, left, add)
	}
}

// scratch computes the mr×nr corner (mr ≤ gemmMR, nr ≤ w) of one register
// tile at c through the scratch tile with variant id's w-lane kernel: the
// tile is loaded from c first when it adds (an exact round trip), and the
// corner is copied back.
func (s *gemmScratch) scratch(id, w, segs, seg int, a []float32, ars, aps int, b []float32, bps int, c []float32, ldc, mr, nr int, add bool) {
	if add {
		copyTile(s.tile[:], w, c, ldc, mr, nr)
	}
	gemmKernel32(id, w, 1, segs, seg, a, ars, aps, b, bps, s.tile[:], w, add)
	copyTile(c, ldc, s.tile[:], w, mr, nr)
}

// copyTile copies the mr×nr corner of src (row stride lds) to dst (row
// stride ldd).
func copyTile(dst []float32, ldd int, src []float32, lds, mr, nr int) {
	for i := 0; i < mr; i++ {
		copy(dst[i*ldd:i*ldd+nr], src[i*lds:i*lds+nr])
	}
}

// pack32 writes the panel dst[p*width+l] = src[l*laneStride + p*stepStride]
// for l < lanes, p < k, zero in the lanes from lanes up to width. It is the
// portable panel packer, the reference every vector packer is held to and
// the one packPanel falls back to.
func pack32(dst []float32, width int, src []float32, lanes, k, laneStride, stepStride int) {
	if lanes == width && laneStride == 1 {
		for p := 0; p < k; p++ {
			copy(dst[p*width:p*width+width], src[p*stepStride:])
		}
		return
	}
	for p := 0; p < k; p++ {
		d := dst[p*width : p*width+width]
		for l := range d {
			if l < lanes {
				d[l] = src[l*laneStride+p*stepStride]
			} else {
				d[l] = 0
			}
		}
	}
}

// gemmSegmentsGo is the portable kernel over tiles row tiles, tile t's A
// gemmMR rows of a on from row t·gemmMR and its C the same rows of c, each
// over segs segments of seg steps: gemmKernel32Go once per segment, A and B
// advanced by seg steps each time. add false (store) is for a single
// segment.
func gemmSegmentsGo(tiles, segs, seg int, a []float32, ars, aps int, b []float32, bps int, c []float32, ldc int, add bool) {
	for t := 0; t < tiles; t++ {
		at, ct := a[t*gemmMR*ars:], c[t*gemmMR*ldc:]
		for s := 0; s < segs; s++ {
			gemmKernel32Go(seg, at[s*seg*aps:], ars, aps, b[s*seg*bps:], bps, ct, ldc, add)
		}
	}
}

// gemmKernel32Go is the portable micro-kernel: C[4×8] (+)= A·B with
// A(i,p) = a[i*ars+p*aps] and B(p,j) = b[p*bps+j], as four 2×4 blocks whose
// eight accumulators the compiler keeps in registers. The explicit float32
// conversion of each product forbids the compiler from fusing it into the
// add on targets that have an FMA.
func gemmKernel32Go(k int, a []float32, ars, aps int, b []float32, bps int, c []float32, ldc int, add bool) {
	for i := 0; i < gemmMR; i += 2 {
		a0, a1 := a[i*ars:], a[(i+1)*ars:]
		for j := 0; j < 8; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float32
			bj := b[j:]
			for p := 0; p < k; p++ {
				bp := bj[p*bps : p*bps+4 : p*bps+4]
				x0, x1 := a0[p*aps], a1[p*aps]
				c00 += float32(x0 * bp[0])
				c01 += float32(x0 * bp[1])
				c02 += float32(x0 * bp[2])
				c03 += float32(x0 * bp[3])
				c10 += float32(x1 * bp[0])
				c11 += float32(x1 * bp[1])
				c12 += float32(x1 * bp[2])
				c13 += float32(x1 * bp[3])
			}
			r0 := c[i*ldc+j : i*ldc+j+4 : i*ldc+j+4]
			r1 := c[(i+1)*ldc+j : (i+1)*ldc+j+4 : (i+1)*ldc+j+4]
			if add {
				r0[0] += c00
				r0[1] += c01
				r0[2] += c02
				r0[3] += c03
				r1[0] += c10
				r1[1] += c11
				r1[2] += c12
				r1[3] += c13
			} else {
				r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
				r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
			}
		}
	}
}
