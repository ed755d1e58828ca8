package nn

import (
	"fmt"
	"math"

	"a2sgd/internal/tensor"
)

// Param is one learnable tensor: the weight slice and its gradient
// accumulator, which always have identical length.
type Param struct {
	Name string
	W    []float32
	G    []float32
}

// Layer is a differentiable module.
//
// Ownership. A layer owns every matrix it returns: Forward and Backward write
// into grow-only workspaces the layer keeps between calls, so a steady-state
// training step allocates nothing. A returned matrix is valid until the next
// call — Forward or Backward — on the same layer; a caller that needs it for
// longer Clones it. Inside a Network the rule is satisfied by construction:
// layer i's output is read by layer i+1's Forward and Backward, both of which
// run before layer i is called again, and an input gradient is consumed by
// the layer below at once. Nobody but the layer writes to a matrix it
// returned, and the layer does not write to its input.
//
// A training Forward also records what its Backward needs — a reference to
// the input, the layer's own output (ReLU differentiates through it), the
// lowered im2col tape, batch statistics, pooling arg-maxes.
// The same workspaces serve evaluation, so a Forward(train=false) between a
// training Forward and its Backward overwrites that record: every layer
// stamps it (record) and Backward then panics, naming the layer, rather
// than differentiate the evaluation batch. Finish the step before
// evaluating. Evaluation between steps is free — workspaces only grow, so a
// large evaluation batch does not evict anything a training batch needs.
type Layer interface {
	// Forward computes the layer output for a batch (rows = samples).
	// train toggles training-time behaviour (batch-norm stats).
	// The layer may retain a reference to x for Backward; callers must not
	// mutate x until Backward completes.
	Forward(x *tensor.Mat, train bool) *tensor.Mat
	// Backward takes dL/dout and returns dL/dx, accumulating dL/dW into
	// the layer's gradient slices (+=, so two steps without ZeroGrads sum).
	// Must follow a Forward with train=true on the same batch, with no
	// Forward(train=false) since; it panics otherwise.
	Backward(dout *tensor.Mat) *tensor.Mat
	// Params returns the learnable tensors (possibly none).
	Params() []Param
	// Name identifies the layer in summaries.
	Name() string
}

// paramsBackward is implemented by the layers that can accumulate their
// parameter gradients without forming the input gradient — Conv2D and
// Linear, the bottom layers of the classifiers. A Network whose caller does
// not take the input gradient (BackwardInterleaved) runs its bottom layer
// this way: the same parameter-gradient bits, without the products and the
// scatter nobody would read.
type paramsBackward interface {
	backwardParams(dout *tensor.Mat)
}

// record is a layer's training-record stamp. A training Forward sets it, an
// evaluation Forward — which reuses the workspaces the record lives in —
// clears it, and Backward checks it.
type record bool

func (r *record) forward(train bool) { *r = record(train) }

func (r record) check(l Layer) {
	if !r {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward since the last evaluation Forward", l.Name()))
	}
}

// buf is a grow-only matrix workspace. get reshapes it — reallocating only
// when the request exceeds every earlier one — and returns the same *Mat each
// time. The contents are whatever the last use left: every user either
// overwrites all of it or clears it first, which the freshly allocated
// matrices this replaces did implicitly.
type buf struct{ m tensor.Mat }

func (b *buf) get(rows, cols int) *tensor.Mat {
	n := rows * cols
	if cap(b.m.Data) < n {
		b.m.Data = make([]float32, n)
	}
	b.m.Rows, b.m.Cols, b.m.Data = rows, cols, b.m.Data[:n]
	return &b.m
}

// transpose writes srcᵀ to dst: src is rows×cols, dst cols×rows, both
// row-major.
func transpose(dst, src []float32, rows, cols int) {
	dst, src = dst[:rows*cols], src[:rows*cols]
	for i := 0; i < rows; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*rows+i] = v
		}
	}
}

// grow is buf.get for a side table that is not a matrix: s resized to n
// elements, reallocated only when n exceeds its capacity, contents
// unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Stateful is implemented by layers that carry non-learnable state a
// checkpoint must capture to resume a run bitwise — batch-norm running
// statistics being the canonical case. Like parameters, state tensors are
// identified by position: a tensor.VecView over them, in this order, is the
// flattened model state.
type Stateful interface {
	// State returns the layer's live state tensors.
	State() [][]float32
}

// stateOf lists the state tensors of the Stateful layers among the given
// stacks, in order.
func stateOf(stacks ...[]Layer) [][]float32 {
	var st [][]float32
	for _, layers := range stacks {
		for _, l := range layers {
			if s, ok := l.(Stateful); ok {
				st = append(st, s.State()...)
			}
		}
	}
	return st
}

// Network is a sequential container of layers. The order of its Params() is
// the flattened layout the distributed runtime works on (package comment,
// "One flattened layout").
type Network struct {
	Layers []Layer

	// The flattened parameter list, built on first use and cached — the
	// training step calls Params every iteration, and rebuilding the slice
	// each time is an avoidable steady-state allocation. Layers must not be
	// mutated after the first call that needs it.
	params   []Param
	layerOff []int // flattened start offset of each layer's params
	nParams  int

	// Evaluation runs in chunks of the training batch (see Forward).
	trainRows int        // rows of the last training Forward
	chunk     tensor.Mat // the rows of an evaluation batch being forwarded
	evalOut   buf        // the evaluation output, assembled chunk by chunk
}

// NewNetwork builds a sequential network.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// buildCache flattens the layer parameters once.
func (n *Network) buildCache() {
	n.layerOff = make([]int, len(n.Layers))
	ps := make([]Param, 0, len(n.Layers))
	off := 0
	for i, l := range n.Layers {
		n.layerOff[i] = off
		lp := l.Params()
		ps = append(ps, lp...)
		for _, p := range lp {
			off += len(p.W)
		}
	}
	n.params = ps
	n.nParams = off
}

// ParamOffsets returns the flattened start offset of each parameter in ps,
// plus one trailing entry holding the total length — the prefix-offset table
// that lets range lookups binary-search instead of rescanning the parameter
// list.
func ParamOffsets(ps []Param) []int {
	off := make([]int, len(ps)+1)
	for i, p := range ps {
		off[i+1] = off[i] + len(p.W)
	}
	return off
}

// GradViewOf resets dst to a view over every gradient tensor of ps in
// flattened order and returns dst. Sub-range views — a bucket, whatever
// tensors its range spans — are then cheap SliceView calls on the result, and
// algorithms encode from and reconstruct into the layers' live storage
// through them.
func GradViewOf(ps []Param, dst *tensor.VecView) *tensor.VecView {
	segs := make([][]float32, len(ps))
	for i, p := range ps {
		segs[i] = p.G
	}
	return dst.Reset(segs)
}

// WeightViewOf is GradViewOf over the weight tensors: CopyTo and CopyFrom on
// the result move the flattened weights (setup broadcast, snapshots, the
// final dense synchronization).
func WeightViewOf(ps []Param, dst *tensor.VecView) *tensor.VecView {
	segs := make([][]float32, len(ps))
	for i, p := range ps {
		segs[i] = p.W
	}
	return dst.Reset(segs)
}

// Forward runs all layers in order. The result is the network's under the
// Layer ownership rule: valid until the next Forward.
//
// An evaluation batch larger than the last training batch is forwarded in
// chunks of that size and its output assembled here. In evaluation mode
// every layer treats samples independently, so the output is the same bits
// — and no layer workspace ever grows beyond what a training step needs,
// however large the held-out set.
func (n *Network) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if train {
		n.trainRows = x.Rows
	}
	if train || n.trainRows == 0 || x.Rows <= n.trainRows {
		return n.forward(x, train)
	}
	var out *tensor.Mat
	for lo := 0; lo < x.Rows; lo += n.trainRows {
		hi := min(lo+n.trainRows, x.Rows)
		n.chunk = tensor.Mat{Rows: hi - lo, Cols: x.Cols, Data: x.Data[lo*x.Cols : hi*x.Cols]}
		y := n.forward(&n.chunk, false)
		if out == nil {
			out = n.evalOut.get(x.Rows, y.Cols)
		}
		copy(out.Data[lo*y.Cols:], y.Data)
	}
	return out
}

func (n *Network) forward(x *tensor.Mat, train bool) *tensor.Mat {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs all layers in reverse and returns the input gradient.
func (n *Network) Backward(dout *tensor.Mat) *tensor.Mat {
	return n.backward(dout, nil, true)
}

// Params returns every learnable tensor in layer order. The slice is cached;
// callers must not modify it.
func (n *Network) Params() []Param {
	if n.params == nil {
		n.buildCache()
	}
	return n.params
}

// NumParams returns the total learnable parameter count.
func (n *Network) NumParams() int {
	if n.params == nil {
		n.buildCache()
	}
	return n.nParams
}

// ZeroGrads clears every gradient accumulator.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		tensor.Zero(p.G)
	}
}

// BackwardInterleaved is Backward with gradient-readiness reporting: after
// layer i's backward completes, the flattened gradient elements
// [off_i, NumParams()) are final — no earlier layer's backward touches them —
// and onReady(off_i) is invoked. onReady is called with strictly decreasing
// offsets (layers without parameters report nothing new and are skipped) and
// a final onReady(0) is guaranteed, so a caller that launches the bucket
// exchange for each newly final range sees every gradient element become
// ready exactly once, deepest layers first, while shallower layers are still
// back-propagating. A nil onReady skips the reporting.
//
// It returns no input gradient, so the bottom layer, when it can
// (paramsBackward), computes only its parameter gradients: the training
// step's call. Every parameter gradient has Backward's bits.
func (n *Network) BackwardInterleaved(dout *tensor.Mat, onReady func(lo int)) {
	n.backward(dout, onReady, false)
}

func (n *Network) backward(dout *tensor.Mat, onReady func(lo int), needDx bool) *tensor.Mat {
	if n.params == nil {
		n.buildCache()
	}
	last := n.nParams
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if pb, ok := n.Layers[i].(paramsBackward); ok && i == 0 && !needDx {
			pb.backwardParams(dout)
			dout = nil
		} else {
			dout = n.Layers[i].Backward(dout)
		}
		if off := n.layerOff[i]; onReady != nil && off < last {
			last = off
			onReady(off)
		}
	}
	if onReady != nil && last != 0 {
		onReady(0)
	}
	return dout
}

// State returns every Stateful layer's state tensors, in layer order.
func (n *Network) State() [][]float32 { return stateOf(n.Layers) }

// ---- initializers ----

// InitHe fills w with He-normal values for fan-in (ReLU networks).
func InitHe(rng *tensor.RNG, w []float32, fanIn int) {
	std := float32(math.Sqrt(2 / float64(fanIn)))
	rng.NormVec(w, 0, std)
}

// InitXavier fills w with Glorot-normal values (tanh/sigmoid networks).
func InitXavier(rng *tensor.RNG, w []float32, fanIn, fanOut int) {
	std := float32(math.Sqrt(2 / float64(fanIn+fanOut)))
	rng.NormVec(w, 0, std)
}

// InitUniform fills w with U(−b, b).
func InitUniform(rng *tensor.RNG, w []float32, b float32) {
	rng.UniformVec(w, -b, b)
}
