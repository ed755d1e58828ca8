package compress

import (
	"a2sgd/internal/comm"
	"a2sgd/internal/netsim"
	"a2sgd/internal/stats"
	"a2sgd/internal/tensor"
)

// sparseScratch owns the reusable buffers of the sparsifying algorithms: the
// selection heap, the (index, value) pair of the current selection and the
// packed payload words. All of it is recycled across Encode calls on one
// instance — the zero-allocation steady state the hot-path benchmarks pin —
// which is why a sparse Payload is only valid until the next Encode on the
// same instance (see the Payload contract in compress.go).
type sparseScratch struct {
	heap []int32                // top-k index heap, sized to the bucket length
	abs  []float32              // |v| precomputed for the heap's comparisons
	idx  []int32                // selected indices of the current Encode
	val  []float32              // selected values of the current Encode
	data []float32              // packed interleaved payload of the current Encode
	agv  comm.AllgatherVScratch // allgatherv buffers of the Exchange side
	fv   tensor.VecView         // flat-call adapter view
}

// selectionSlack is the pre-sizing headroom above the nominal k: Gaussian-K's
// selected count varies around k (the threshold targets k only in
// expectation), so sizing exactly to k made the first few Encodes grow the
// idx/val/data buffers. A quarter of k plus a constant floor absorbs the
// fluctuation so even the first Encode stays off the allocator.
func selectionSlack(k int) int { return k + k/4 + 16 }

// newSparseScratch pre-sizes the selection buffers with slack above k so
// even the first Encode on an instance allocates only if the selection far
// outgrows k (Top-K never grows; Gaussian-K fluctuates within the slack in
// practice).
func newSparseScratch(n, k int) sparseScratch {
	s := selectionSlack(k)
	return sparseScratch{
		heap: make([]int32, n),
		abs:  make([]float32, n),
		idx:  make([]int32, 0, s),
		val:  make([]float32, 0, s),
		data: make([]float32, 0, 2*s),
	}
}

// payload packs the current selection (s.idx, s.val) as interleaved float32
// words: [idx0 val0 idx1 val1 ...] with indices bit-cast. Actual wire size is
// 64k bits; the paper's Table 2 accounts only the 32k value bits, which
// PayloadBytes mirrors. The returned Data aliases s.data — valid until the
// next Encode on the owning instance.
func (s *sparseScratch) payload() Payload {
	d := growF32(&s.data, 2*len(s.idx))
	for i, ix := range s.idx {
		d[2*i] = comm.Float32FromIndex(uint32(ix))
		d[2*i+1] = s.val[i]
	}
	return Payload{Data: d, Bits: int64(32 * len(s.idx))}
}

// valuesAt fills s.val with v[ix] for every selected index.
func (s *sparseScratch) valuesAt(v []float32) {
	val := growF32(&s.val, len(s.idx))
	for i, ix := range s.idx {
		val[i] = v[ix]
	}
}

// topK selects the indices of the k largest |v| entries into s.idx using an
// index max-heap built in O(n) followed by k pops of O(log n) — the
// O(n + k log n) computation the paper's Table 2 lists. The magnitudes are
// precomputed once into the abs scratch with the vector kernel so the
// O(n log n)-ish comparison volume reads a flat array instead of re-deriving
// |v[i]| per compare. The heap storage and the result slice live on the
// scratch and are recycled across calls.
func (s *sparseScratch) topK(v []float32, k int) {
	n := len(v)
	if cap(s.idx) < k {
		s.idx = make([]int32, 0, selectionSlack(k))
	}
	if k >= n {
		s.idx = s.idx[:n]
		for i := range s.idx {
			s.idx[i] = int32(i)
		}
		return
	}
	if cap(s.abs) < n {
		s.abs = make([]float32, n)
	}
	av := s.abs[:n]
	tensor.AbsInto(av, v)
	abs := func(i int32) float32 { return av[i] }
	if cap(s.heap) < n {
		s.heap = make([]int32, n)
	}
	heap := s.heap[:n]
	for i := range heap {
		heap[i] = int32(i)
	}
	siftDown := func(lo, hi int) {
		root := lo
		for {
			child := 2*root + 1
			if child >= hi {
				break
			}
			if child+1 < hi && abs(heap[child+1]) > abs(heap[child]) {
				child++
			}
			if abs(heap[child]) <= abs(heap[root]) {
				break
			}
			heap[root], heap[child] = heap[child], heap[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	out := s.idx[:0]
	hi := n
	for len(out) < k {
		out = append(out, heap[0])
		hi--
		heap[0] = heap[hi]
		siftDown(0, hi)
	}
	s.idx = out
}

// sparseExchange allgathers every worker's (index, value) pairs and
// reconstructs the worker-averaged dense gradient in g. This is the
// Allgather exchange path the paper credits for Gaussian-K's iteration-time
// advantage on fast networks (§4.4).
func sparseExchange(p Payload, g []float32, c *comm.Communicator, sc *comm.AllgatherVScratch) error {
	all, _, err := c.AllgatherVInto(p.Data, sc)
	if err != nil {
		return err
	}
	tensor.Zero(g)
	inv := 1 / float32(c.Size())
	for i := 0; i+1 < len(all); i += 2 {
		ix := int(comm.Float32ToIndex(all[i]))
		if ix >= 0 && ix < len(g) {
			g[ix] += all[i+1] * inv
		}
	}
	return nil
}

// sparseExchangeView is sparseExchange reconstructing directly into a
// strided view: zero the segments, then scatter-add each gathered
// (index, value) pair through the view's offset table. The adds land in the
// same order as the flat loop, so the result is bitwise identical.
func sparseExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator, sc *comm.AllgatherVScratch) error {
	if g := v.Contiguous(); g != nil || v.Len() == 0 {
		return sparseExchange(p, g, c, sc)
	}
	all, _, err := c.AllgatherVInto(p.Data, sc)
	if err != nil {
		return err
	}
	v.Zero()
	inv := 1 / float32(c.Size())
	n := v.Len()
	for i := 0; i+1 < len(all); i += 2 {
		ix := int(comm.Float32ToIndex(all[i]))
		if ix >= 0 && ix < n {
			v.AddAt(ix, all[i+1]*inv)
		}
	}
	return nil
}

// errorFeedback is the residual memory shared by the sparsifiers: the
// un-transmitted part of each gradient is accumulated and re-injected the
// next step, the standard memory-compensation of Stich et al. (the paper's
// reference [27]).
type errorFeedback struct {
	residual []float32
	acc      []float32 // scratch: residual + g
}

func newErrorFeedback(n int) errorFeedback {
	return errorFeedback{residual: make([]float32, n), acc: make([]float32, n)}
}

// accumulateView forms acc = residual + v and returns it: acc = residual,
// then acc += v segment-by-segment with the per-lane vector add — element for
// element the sum r + g[i] over the flat vector.
func (e *errorFeedback) accumulateView(v *tensor.VecView) []float32 {
	if v.Len() != len(e.residual) {
		panic("compress: gradient length changed between steps")
	}
	copy(e.acc, e.residual)
	v.AddInto(e.acc)
	return e.acc
}

// retain records the new residual: acc minus what was transmitted.
// transmitted is given by the selected indices into acc.
func (e *errorFeedback) retain(acc []float32, selected []int32) {
	copy(e.residual, acc)
	for _, ix := range selected {
		e.residual[ix] = 0
	}
}

func (e *errorFeedback) reset() {
	tensor.Zero(e.residual)
}

// ---- Top-K ----

// TopK transmits the k largest-magnitude entries of the error-compensated
// gradient. Selection uses a max-heap built in O(n) followed by k pops of
// O(log n) — the O(n + k log n) computation the paper's Table 2 lists.
type TopK struct {
	k  int
	ef errorFeedback
	sc sparseScratch
}

// NewTopK builds a Top-K sparsifier from the options (k = Density·N).
func NewTopK(o Options) *TopK {
	o.validate()
	return &TopK{k: o.K(), ef: newErrorFeedback(o.N), sc: newSparseScratch(o.N, o.K())}
}

// Name implements Algorithm.
func (t *TopK) Name() string { return "topk" }

// K exposes the selection count (for reports).
func (t *TopK) K() int { return t.k }

// Encode selects the top-k entries of residual+g by magnitude. The returned
// payload aliases instance scratch (valid until the next Encode).
func (t *TopK) Encode(g []float32) Payload {
	return t.EncodeView(t.sc.fv.Reset1(g))
}

// EncodeView implements Algorithm: the error-compensated gradient is
// accumulated from the view's segments; selection runs on the contiguous
// accumulator as usual.
func (t *TopK) EncodeView(v *tensor.VecView) Payload {
	acc := t.ef.accumulateView(v)
	t.sc.topK(acc, t.k)
	t.sc.valuesAt(acc)
	t.ef.retain(acc, t.sc.idx)
	return t.sc.payload()
}

// Exchange implements Algorithm via the sparse allgather.
func (t *TopK) Exchange(p Payload, g []float32, c *comm.Communicator) error {
	return sparseExchange(p, g, c, &t.sc.agv)
}

// ExchangeView implements Algorithm, scatter-adding into the view.
func (t *TopK) ExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator) error {
	return sparseExchangeView(p, v, c, &t.sc.agv)
}

// ExchangeKind implements Algorithm: AllgatherV (the selected count is fixed
// but the exchange primitive — and so its extra length round — is the same
// variable-length allgather Gaussian-K uses).
func (t *TopK) ExchangeKind() netsim.ExchangeKind { return netsim.ExchangeAllgatherV }

// PayloadBytes implements Algorithm: 32k bits (paper accounting).
func (t *TopK) PayloadBytes(n int) int64 { return int64(4 * t.k) }

// Reset implements Algorithm.
func (t *TopK) Reset() { t.ef.reset() }

// SaveState implements StateSaver: the error-feedback residual.
func (t *TopK) SaveState() State {
	var s State
	s.setVec("ef", t.ef.residual)
	return s
}

// LoadState implements StateLoader.
func (t *TopK) LoadState(s State) { s.vec("ef", t.ef.residual) }

// ---- Gaussian-K ----

// GaussianK (Shi et al., the paper's reference [25]) avoids Top-K's heap by
// assuming gradient values are Gaussian: it fits N(µ, σ²) in one pass and
// derives a magnitude threshold whose expected exceedance count is k, then
// transmits every entry above the threshold. The selected count varies
// around k, which is why the exchange is an AllgatherV.
type GaussianK struct {
	k      int
	n      int
	ef     errorFeedback
	sc     sparseScratch
	selblk []int32 // per-block selection output of GaussTailSelect
}

// gaussSelBlock is the chunk size of the vectorized threshold scan: large
// enough to amortize the kernel call, small enough that the int32 index
// block stays cache-resident.
const gaussSelBlock = 4096

// NewGaussianK builds a Gaussian-K sparsifier from the options.
func NewGaussianK(o Options) *GaussianK {
	o.validate()
	return &GaussianK{
		k: o.K(), n: o.N, ef: newErrorFeedback(o.N),
		sc:     newSparseScratch(0, o.K()),
		selblk: make([]int32, gaussSelBlock),
	}
}

// Name implements Algorithm.
func (gk *GaussianK) Name() string { return "gaussiank" }

// Encode estimates the Gaussian threshold and selects entries above it. The
// returned payload aliases instance scratch (valid until the next Encode).
func (gk *GaussianK) Encode(g []float32) Payload {
	return gk.EncodeView(gk.sc.fv.Reset1(g))
}

// EncodeView implements Algorithm. The threshold scan runs in gaussSelBlock
// chunks through the vectorized tail selector; its float64 |x−µ| > τ
// predicate is element-for-element the scalar one, so the selection — and
// with it the residual and the payload — is bitwise unchanged.
func (gk *GaussianK) EncodeView(v *tensor.VecView) Payload {
	acc := gk.ef.accumulateView(v)
	fit := stats.FitGaussian(acc)
	tau := fit.TailThreshold(float64(gk.k) / float64(gk.n))
	idx, val := gk.sc.idx[:0], gk.sc.val[:0]
	for lo := 0; lo < len(acc); lo += gaussSelBlock {
		hi := lo + gaussSelBlock
		if hi > len(acc) {
			hi = len(acc)
		}
		nsel := tensor.GaussTailSelect(gk.selblk, acc[lo:hi], int32(lo), fit.Mu, tau)
		for _, ix := range gk.selblk[:nsel] {
			idx = append(idx, ix)
			val = append(val, acc[ix])
		}
	}
	// Degenerate safety net: a constant gradient has σ=0 and selects
	// nothing; fall back to transmitting the single largest entry so the
	// method always makes progress.
	if len(idx) == 0 && len(acc) > 0 {
		best := int32(0)
		for i := 1; i < len(acc); i++ {
			a, b := acc[i], acc[best]
			if a < 0 {
				a = -a
			}
			if b < 0 {
				b = -b
			}
			if a > b {
				best = int32(i)
			}
		}
		idx = append(idx, best)
		val = append(val, acc[best])
	}
	gk.sc.idx, gk.sc.val = idx, val
	gk.ef.retain(acc, idx)
	return gk.sc.payload()
}

// Exchange implements Algorithm via the sparse allgather.
func (gk *GaussianK) Exchange(p Payload, g []float32, c *comm.Communicator) error {
	return sparseExchange(p, g, c, &gk.sc.agv)
}

// ExchangeView implements Algorithm, scatter-adding into the view.
func (gk *GaussianK) ExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator) error {
	return sparseExchangeView(p, v, c, &gk.sc.agv)
}

// ExchangeKind implements Algorithm.
func (gk *GaussianK) ExchangeKind() netsim.ExchangeKind { return netsim.ExchangeAllgatherV }

// PayloadBytes implements Algorithm: 32k bits expected (paper accounting).
func (gk *GaussianK) PayloadBytes(n int) int64 { return int64(4 * gk.k) }

// Reset implements Algorithm.
func (gk *GaussianK) Reset() { gk.ef.reset() }

// SaveState implements StateSaver: the error-feedback residual.
func (gk *GaussianK) SaveState() State {
	var s State
	s.setVec("ef", gk.ef.residual)
	return s
}

// LoadState implements StateLoader.
func (gk *GaussianK) LoadState(s State) { s.vec("ef", gk.ef.residual) }
