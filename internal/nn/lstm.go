package nn

import (
	"fmt"

	"a2sgd/internal/tensor"
)

// LSTMLM is a word-level multi-layer LSTM language model: embedding → one
// or more stacked LSTM layers unrolled over the sequence → vocabulary
// projection, trained with softmax cross-entropy on next-token prediction.
// It is the architecture family of the paper's LSTM-PTB workload: with
// vocab 10,000, embedding/hidden 1500 and two layers the parameter count is
// 66.0 M — the paper's Table 1 entry (see models.TestPaperScaleLSTMCount).
//
// Because the recurrent weights are shared across timesteps, the model
// manages its own backpropagation-through-time rather than implementing the
// feed-forward Layer interface.
//
// The unrolled network runs layer by layer, not timestep by timestep, so
// that a product which does not depend on the previous step runs once per
// sequence over all T·B rows instead of T times over B: each layer's input
// product x·Wxᵀ, the logits h·Wyᵀ, and in the backward dlogits·Wy and each
// layer's dz·Wx. Only the recurrent products h·Whᵀ and dz·Wh — and the
// weight-gradient products, see BackwardInterleaved — stay inside the time
// loop. A product's rows are independent accumulators (the tensor package's
// Gemm specification), so a row computes the same bits in a T·B-row product
// as in a B-row one, and every batched result is added back per step with
// the single float32 add the per-step product made: no loss, gradient or
// digest depends on the schedule.
type LSTMLM struct {
	Vocab, Embed, Hidden, Layers int

	// Parameters. Gate layout within the 4H dimension: [i f g o].
	E      []float32   // (Vocab, Embed) embedding
	Wx     [][]float32 // per layer: (4H, in) with in = Embed (l=0) or Hidden
	Wh     [][]float32 // per layer: (4H, Hidden)
	B      [][]float32 // per layer: (4H)
	Wy, By []float32   // (Vocab, Hidden), (Vocab) output projection

	GE, GWy, GBy []float32
	GWx, GWh, GB [][]float32

	// Flattened-parameter cache, built on first use: the distributed step
	// asks for the parameter list and offset table every iteration, and
	// BackwardInterleaved reports readiness in terms of the offsets.
	params   []Param
	paramOff []int

	// whT holds each layer's Whᵀ (H × 4H) as a row-major copy, made at the
	// top of every Forward (the weights may have changed since the last one)
	// and read in place by all T recurrent products of that call, which
	// would otherwise pack the transposed view on every step.
	whT matTape

	// BPTT tapes, written by every Forward and read by the Backward that
	// follows a training one. Each is one grow-only slab carved into equally
	// shaped matrices, so a steady-state step allocates nothing; like a
	// Layer's workspaces they serve evaluation too, so an evaluation Forward
	// between a training Forward and its Backward overwrites the record.
	// Consecutive steps of one layer are adjacent in a slab, so span hands a
	// layer's whole sequence to one product.
	tokens  [][]int
	steps   int     // T of the last Forward
	emb     matTape // [t]: embedded inputs (B, Embed) — layer 0's input
	hs, cs  matTape // [l·(T+1) + t]: states after step t−1 (index 0 is zeros)
	gates   matTape // [l·T + t]: post-activation gate values (B, 4H)
	tanhC   matTape // [l·T + t]: tanh(c_t)
	dlogits matTape // [t]: the logits, turned in place into their gradient
	labels  []int
	ce      SoftmaxLoss
	// Backward scratch.
	dz     matTape // [t]: one layer's gate pre-activation gradients
	dh, dc buf     // one layer's state gradients carried from step t+1
	dx     buf     // (T·B, H or Embed): the gradient flowing down between layers
}

// matTape is a grow-only sequence of equally shaped matrices carved from one
// slab.
type matTape struct {
	mats []tensor.Mat
	slab []float32
}

// shape re-carves the tape into count rows×cols matrices, reallocating only
// when the request exceeds every earlier one. Contents are left as they are.
func (t *matTape) shape(count, rows, cols int) {
	n := rows * cols
	t.slab, t.mats = grow(t.slab, count*n), grow(t.mats, count)
	for i := range t.mats {
		t.mats[i] = tensor.Mat{Rows: rows, Cols: cols, Data: t.slab[i*n : (i+1)*n]}
	}
}

func (t *matTape) at(i int) *tensor.Mat { return &t.mats[i] }

// span returns matrices [i, j) as one (j−i)·rows × cols matrix over the slab.
func (t *matTape) span(i, j int) tensor.Mat {
	m := t.mats[i]
	n := len(m.Data)
	return tensor.Mat{Rows: (j - i) * m.Rows, Cols: m.Cols, Data: t.slab[i*n : j*n]}
}

// NewLSTMLM builds a single-layer model with Xavier initialization.
func NewLSTMLM(rng *tensor.RNG, vocab, embed, hidden int) *LSTMLM {
	return NewDeepLSTMLM(rng, vocab, embed, hidden, 1)
}

// NewDeepLSTMLM builds a stacked model with the given layer count.
func NewDeepLSTMLM(rng *tensor.RNG, vocab, embed, hidden, layers int) *LSTMLM {
	if layers < 1 {
		panic("nn: LSTM needs at least one layer")
	}
	m := &LSTMLM{Vocab: vocab, Embed: embed, Hidden: hidden, Layers: layers}
	h4 := 4 * hidden
	m.E = make([]float32, vocab*embed)
	m.Wy = make([]float32, vocab*hidden)
	m.By = make([]float32, vocab)
	m.GE = make([]float32, len(m.E))
	m.GWy = make([]float32, len(m.Wy))
	m.GBy = make([]float32, len(m.By))
	InitUniform(rng, m.E, 0.1)
	InitXavier(rng, m.Wy, hidden, vocab)
	for l := 0; l < layers; l++ {
		in := embed
		if l > 0 {
			in = hidden
		}
		wx := make([]float32, h4*in)
		wh := make([]float32, h4*hidden)
		b := make([]float32, h4)
		InitXavier(rng, wx, in, h4)
		InitXavier(rng, wh, hidden, h4)
		// Forget-gate bias starts at 1 — the standard trick for gradient flow.
		for i := hidden; i < 2*hidden; i++ {
			b[i] = 1
		}
		m.Wx = append(m.Wx, wx)
		m.Wh = append(m.Wh, wh)
		m.B = append(m.B, b)
		m.GWx = append(m.GWx, make([]float32, len(wx)))
		m.GWh = append(m.GWh, make([]float32, len(wh)))
		m.GB = append(m.GB, make([]float32, len(b)))
	}
	return m
}

// buildCache flattens the parameter list and its prefix-offset table once.
// Parameter order: E, then (Wx, Wh, b) per layer, then Wy, By — so the
// offset of layer l's first tensor is paramOff[1+3l] and the output
// projection starts at paramOff[1+3*Layers].
func (m *LSTMLM) buildCache() {
	ps := []Param{{Name: "lstm.E", W: m.E, G: m.GE}}
	for l := 0; l < m.Layers; l++ {
		ps = append(ps,
			Param{Name: fmt.Sprintf("lstm.%d.Wx", l), W: m.Wx[l], G: m.GWx[l]},
			Param{Name: fmt.Sprintf("lstm.%d.Wh", l), W: m.Wh[l], G: m.GWh[l]},
			Param{Name: fmt.Sprintf("lstm.%d.b", l), W: m.B[l], G: m.GB[l]},
		)
	}
	ps = append(ps,
		Param{Name: "lstm.Wy", W: m.Wy, G: m.GWy},
		Param{Name: "lstm.by", W: m.By, G: m.GBy},
	)
	m.params = ps
	m.paramOff = ParamOffsets(ps)
}

// Params returns the learnable tensors. The slice is cached; callers must
// not modify it.
func (m *LSTMLM) Params() []Param {
	if m.params == nil {
		m.buildCache()
	}
	return m.params
}

// ParamOffsets returns the cached prefix-offset table of the flattened
// parameter vector (one trailing entry = NumParams()).
func (m *LSTMLM) ParamOffsets() []int {
	if m.params == nil {
		m.buildCache()
	}
	return m.paramOff
}

// NumParams returns the learnable parameter count.
func (m *LSTMLM) NumParams() int {
	off := m.ParamOffsets()
	return off[len(off)-1]
}

// layerIn returns layer l's input width.
func (m *LSTMLM) layerIn(l int) int {
	if l == 0 {
		return m.Embed
	}
	return m.Hidden
}

// layerInput returns layer l's input at step t: the embedding for the bottom
// layer, the hidden state of the layer below otherwise.
func (m *LSTMLM) layerInput(l, t int) *tensor.Mat {
	if l == 0 {
		return m.emb.at(t)
	}
	return m.hs.at((l-1)*(m.steps+1) + t + 1)
}

// layerInputs returns layer l's inputs at every step, as T·B rows.
func (m *LSTMLM) layerInputs(l int) tensor.Mat {
	if l == 0 {
		return m.emb.span(0, m.steps)
	}
	return m.hs.span((l-1)*(m.steps+1)+1, l*(m.steps+1))
}

// layerForward runs layer l over the whole sequence. The input product of
// every step is one Gemm straight into the gates tape; the time loop adds
// the recurrent product and runs the cell.
func (m *LSTMLM) layerForward(l int) {
	H, T := m.Hidden, m.steps
	z := m.gates.span(l*T, (l+1)*T)
	x := m.layerInputs(l)
	tensor.Gemm(z.View(), x.View(), tensor.ViewOf(4*H, m.layerIn(l), m.Wx[l]).T())
	for t := 0; t < T; t++ {
		m.cellForward(l, t)
	}
}

// cellForward finishes one LSTM layer for one timestep: to the input product
// already in the gates tape it adds h·Whᵀ, then one tensor.LSTMCell call over
// the step's rows adds the bias and writes the post-activation [i f g o]
// gate values, the new states and tanh(c).
func (m *LSTMLM) cellForward(l, t int) {
	T := m.steps
	h, c := m.hs.at(l*(T+1)+t), m.cs.at(l*(T+1)+t)
	newH, newC := m.hs.at(l*(T+1)+t+1), m.cs.at(l*(T+1)+t+1)
	z, tc := m.gates.at(l*T+t), m.tanhC.at(l*T+t)
	tensor.GemmAdd(z.View(), h.View(), m.whT.at(l).View())
	tensor.LSTMCell(z.Data, newC.Data, tc.Data, newH.Data, c.Data, m.B[l], m.Hidden)
}

// checkTokens panics unless every row of tokens holds T+1 tokens and every
// token is in the vocabulary. Forward calls it before it writes any tape.
func (m *LSTMLM) checkTokens(tokens [][]int) {
	n := len(tokens[0])
	for b, row := range tokens {
		if len(row) != n {
			panic(fmt.Sprintf("nn: LSTMLM token row %d has length %d, row 0 has %d", b, len(row), n))
		}
		for t, tok := range row {
			if tok < 0 || tok >= m.Vocab {
				panic(fmt.Sprintf("nn: LSTMLM token row %d, position %d: token %d out of vocab %d", b, t, tok, m.Vocab))
			}
		}
	}
}

// Forward runs the model over tokens[b][t], predicting tokens[b][t+1] for
// t < T−1, and returns the mean cross-entropy per predicted token. Every row
// must have the same length T+1 ≥ 2 and every token must be in the
// vocabulary; Forward checks both before it touches the tapes. The
// activations go to the BPTT tapes either way; train marks them as belonging
// to a training batch, which Backward requires. tokens is retained until
// that Backward.
func (m *LSTMLM) Forward(tokens [][]int, train bool) float64 {
	B := len(tokens)
	if B == 0 {
		return 0
	}
	T := len(tokens[0]) - 1 // predictions
	if T < 1 {
		panic("nn: LSTMLM needs sequences of length ≥ 2")
	}
	m.checkTokens(tokens)
	H, L := m.Hidden, m.Layers
	m.tokens, m.steps = nil, T
	if train {
		m.tokens = tokens
	}
	m.emb.shape(T, B, m.Embed)
	m.hs.shape(L*(T+1), B, H)
	m.cs.shape(L*(T+1), B, H)
	m.gates.shape(L*T, B, 4*H)
	m.tanhC.shape(L*T, B, H)
	m.dlogits.shape(T, B, m.Vocab)
	m.whT.shape(L, H, 4*H)
	for l := 0; l < L; l++ {
		transpose(m.whT.at(l).Data, m.Wh[l], 4*H, H)
		tensor.Zero(m.hs.at(l * (T + 1)).Data)
		tensor.Zero(m.cs.at(l * (T + 1)).Data)
	}
	for t := 0; t < T; t++ {
		x := m.emb.at(t)
		for b := 0; b < B; b++ {
			tok := tokens[b][t]
			copy(x.Row(b), m.E[tok*m.Embed:(tok+1)*m.Embed])
		}
	}
	for l := 0; l < L; l++ {
		m.layerForward(l)
	}
	// Every step's logits in one product, then each step's loss against the
	// next token, which also turns its logits into their gradient.
	logits, top := m.dlogits.span(0, T), m.layerInputs(L)
	tensor.Gemm(logits.View(), top.View(), tensor.ViewOf(m.Vocab, H, m.Wy).T())
	tensor.AddRowVec(&logits, m.By)
	m.labels = grow(m.labels, B)
	var totalCE float64
	for t := 0; t < T; t++ {
		for b := 0; b < B; b++ {
			m.labels[b] = tokens[b][t+1]
		}
		d := m.dlogits.at(t)
		totalCE += m.ce.into(d, d, m.labels)
	}
	return totalCE / float64(T)
}

// Backward runs truncated BPTT over the cached sequence, accumulating
// parameter gradients. The loss is the mean CE per token, matching Forward.
func (m *LSTMLM) Backward() { m.BackwardInterleaved(nil) }

// BackwardInterleaved is Backward with gradient-readiness reporting. It
// unwinds the network in reverse flattened order — the output projection,
// then each layer from the top down over the whole sequence, the embedding
// last (its gradient is layer 0's input gradient) — and a tensor's gradient
// is final once its part is done. onReady is invoked with strictly
// decreasing offsets lo such that the flattened gradient elements
// [lo, NumParams()) are final: the projection's offset, then one per layer
// from the top down, ending with a guaranteed onReady(0). nil onReady skips
// the reporting (plain Backward).
//
// Per sequence, one product each: dlogits·Wy (the top layer's output
// gradient at every step) and, after each layer's time loop, dz·Wx (the
// layer below's output gradient, or the embedding gradient). Per timestep:
// the recurrent dz·Wh, which needs the step after it, and every weight
// gradient — one product per timestep, added in descending t. A weight
// gradient sums over the batch; batching its timesteps into one product
// would merge T sums into one and re-associate it, so they stay apart.
// tensor.GemmAdd forms each product's sums on their own before the add, and
// each batched product's rows are added back per step with one float32 add,
// so the bits are those of a time-major loop of per-step products
// (lstm_ref_test.go keeps one as the reference).
func (m *LSTMLM) BackwardInterleaved(onReady func(lo int)) {
	if m.params == nil {
		m.buildCache()
	}
	if m.tokens == nil {
		panic("nn: LSTMLM Backward without a training Forward")
	}
	B, T, H, L := len(m.tokens), m.steps, m.Hidden, m.Layers
	gwy := tensor.ViewOf(m.Vocab, H, m.GWy)

	// Scale: Forward averaged CE over T steps.
	dlogits := m.dlogits.span(0, T)
	tensor.Scale(dlogits.Data, float32(1.0/float64(T)))
	for t := T - 1; t >= 0; t-- {
		dlog := m.dlogits.at(t)
		tensor.GemmAdd(gwy, dlog.T(), m.layerInput(L, t).View())
		tensor.ColSums(m.GBy, dlog)
	}
	if onReady != nil {
		onReady(m.paramOff[1+3*L])
	}
	// dx is the gradient flowing down: into the top layer's outputs first,
	// then out of each layer's inputs, the last of them the embedding's.
	dx := m.dx.get(T*B, H)
	tensor.Gemm(dx.View(), dlogits.View(), tensor.ViewOf(m.Vocab, H, m.Wy))
	m.dz.shape(T, B, 4*H)
	dz := m.dz.span(0, T)
	for l := L - 1; l >= 0; l-- {
		m.layerBackward(l, dx)
		if l > 0 && onReady != nil {
			onReady(m.paramOff[1+3*l])
		}
		in := m.layerIn(l)
		dx = m.dx.get(T*B, in)
		tensor.Gemm(dx.View(), dz.View(), tensor.ViewOf(4*H, in, m.Wx[l]))
	}
	for t := T - 1; t >= 0; t-- {
		for b := 0; b < B; b++ {
			tok := m.tokens[b][t]
			tensor.Add(m.GE[tok*m.Embed:(tok+1)*m.Embed], dx.Row(t*B+b))
		}
	}
	if onReady != nil {
		onReady(0)
	}
	m.tokens = nil // the tapes are spent
}

// layerBackward runs BPTT through layer l, descending t. dhIn holds the
// gradient of the layer's outputs at every step from above (T·B rows); the
// dz tape receives the gate pre-activation gradients the caller turns into
// the layer's input gradient.
func (m *LSTMLM) layerBackward(l int, dhIn *tensor.Mat) {
	B, T, H := len(m.tokens), m.steps, m.Hidden
	in := m.layerIn(l)
	wh := tensor.ViewOf(4*H, H, m.Wh[l])
	dh, dc := m.dh.get(B, H), m.dc.get(B, H)
	tensor.Zero(dh.Data)
	tensor.Zero(dc.Data)
	for t := T - 1; t >= 0; t-- {
		// dh holds what step t+1 passed back; add what the layer above
		// (or the projection) sends at step t.
		tensor.Add(dh.Data, dhIn.Data[t*B*H:(t+1)*B*H])
		// The step's gate gradients into dz; dc becomes dc_{t−1} in place.
		dz := m.dz.at(t)
		tensor.LSTMGateGrad(dz.Data, dc.Data, m.gates.at(l*T+t).Data, m.tanhC.at(l*T+t).Data,
			m.cs.at(l*(T+1)+t).Data, dh.Data, H)
		tensor.GemmAdd(tensor.ViewOf(4*H, in, m.GWx[l]), dz.T(), m.layerInput(l, t).View())
		tensor.GemmAdd(tensor.ViewOf(4*H, H, m.GWh[l]), dz.T(), m.hs.at(l*(T+1)+t).View())
		tensor.ColSums(m.GB[l], dz)
		// dh_{t-1}; dz is complete, so dh can be overwritten in place. No
		// step reads it after t = 0.
		if t > 0 {
			tensor.Gemm(dh.View(), dz.View(), wh)
		}
	}
}
