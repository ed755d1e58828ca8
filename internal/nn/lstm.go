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

	// BPTT tapes, written by every Forward and read by the Backward that
	// follows a training one. Each is one grow-only slab carved into equally
	// shaped matrices, so a steady-state step allocates nothing; like a
	// Layer's workspaces they serve evaluation too, so an evaluation Forward
	// between a training Forward and its Backward overwrites the record.
	tokens  [][]int
	steps   int     // T of the last Forward
	emb     matTape // [t]: embedded inputs (B, Embed) — layer 0's input
	hs, cs  matTape // [l·(T+1) + t]: states after step t−1 (index 0 is zeros)
	gates   matTape // [l·T + t]: post-activation gate values (B, 4H)
	tanhC   matTape // [l·T + t]: tanh(c_t)
	dlogits matTape // [t]
	logits  buf
	labels  []int
	ce      SoftmaxLoss
	// Backward scratch.
	dh, dc  matTape // [l]: state gradients carried from step t+1
	dz, dx0 buf     // gate pre-activation gradient; layer 0's input gradient
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

// cellForward runs one LSTM layer for one timestep, reading the layer input
// and the previous states from the tapes and writing the post-activation
// [i f g o] gate values, the new states and tanh(c) to them.
func (m *LSTMLM) cellForward(l, t int) {
	H, T := m.Hidden, m.steps
	x := m.layerInput(l, t)
	h, c := m.hs.at(l*(T+1)+t), m.cs.at(l*(T+1)+t)
	newH, newC := m.hs.at(l*(T+1)+t+1), m.cs.at(l*(T+1)+t+1)
	z, tc := m.gates.at(l*T+t), m.tanhC.at(l*T+t)
	tensor.Gemm(z.View(), x.View(), tensor.ViewOf(4*H, m.layerIn(l), m.Wx[l]).T(), tensor.Wide)
	tensor.GemmAdd(z.View(), h.View(), tensor.ViewOf(4*H, H, m.Wh[l]).T(), tensor.Wide)
	tensor.AddRowVec(z, m.B[l])
	for b := 0; b < x.Rows; b++ {
		zr := z.Row(b)
		cPrev := c.Row(b)
		hr, cr, tr := newH.Row(b), newC.Row(b), tc.Row(b)
		ig, fg, gg, og := zr[:H], zr[H:2*H], zr[2*H:3*H], zr[3*H:]
		tensor.Sigmoid(zr[:2*H], zr[:2*H])
		tensor.Tanh(gg, gg)
		tensor.Sigmoid(og, og)
		for j, cp := range cPrev {
			cr[j] = fg[j]*cp + ig[j]*gg[j]
		}
		tensor.Tanh(tr, cr)
		for j, o := range og {
			hr[j] = o * tr[j]
		}
	}
}

// Forward runs the model over tokens[b][t], predicting tokens[b][t+1] for
// t < T−1, and returns the mean cross-entropy per predicted token. The
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
	for l := 0; l < L; l++ {
		tensor.Zero(m.hs.at(l * (T + 1)).Data)
		tensor.Zero(m.cs.at(l * (T + 1)).Data)
	}
	m.labels = grow(m.labels, B)
	logits := m.logits.get(B, m.Vocab)
	wy := tensor.ViewOf(m.Vocab, H, m.Wy)

	var totalCE float64
	for t := 0; t < T; t++ {
		// Embed tokens at position t.
		x := m.emb.at(t)
		for b := 0; b < B; b++ {
			tok := tokens[b][t]
			if tok < 0 || tok >= m.Vocab {
				panic(fmt.Sprintf("nn: token %d out of vocab %d", tok, m.Vocab))
			}
			copy(x.Row(b), m.E[tok*m.Embed:(tok+1)*m.Embed])
		}
		for l := 0; l < L; l++ {
			m.cellForward(l, t)
		}
		// Output logits and loss against the next token.
		tensor.Gemm(logits.View(), m.layerInput(L, t).View(), wy.T(), tensor.Wide)
		tensor.AddRowVec(logits, m.By)
		for b := 0; b < B; b++ {
			m.labels[b] = tokens[b][t+1]
		}
		totalCE += m.ce.into(m.dlogits.at(t), logits, m.labels)
	}
	return totalCE / float64(T)
}

// Backward runs truncated BPTT over the cached sequence, accumulating
// parameter gradients. The loss is the mean CE per token, matching Forward.
func (m *LSTMLM) Backward() { m.BackwardInterleaved(nil) }

// BackwardInterleaved is Backward with gradient-readiness reporting. BPTT
// accumulates every parameter's gradient across all timesteps, so nothing is
// final until the loop reaches t = 0 — but *within* that last timestep the
// stack unwinds top-down, finalizing tensors in reverse flattened order:
// the output projection (Wy, By) right after its t = 0 accumulation, then
// each layer's (Wx, Wh, b) from the top layer down, and the embedding last
// (its gradient is written by layer 0's input backprop). onReady is invoked
// with strictly decreasing offsets lo such that the flattened gradient
// elements [lo, NumParams()) are final, ending with a guaranteed
// onReady(0). nil onReady skips the reporting (plain Backward).
//
// Every weight gradient takes one product per timestep, added in descending
// t — tensor.GemmAdd forms the product's sums on their own before the add,
// so this is the scratch-then-Add the tapes replaced, without the scratch.
func (m *LSTMLM) BackwardInterleaved(onReady func(lo int)) {
	if m.params == nil {
		m.buildCache()
	}
	if m.tokens == nil {
		panic("nn: LSTMLM Backward without a training Forward")
	}
	B, T, H, L := len(m.tokens), m.steps, m.Hidden, m.Layers
	wy := tensor.ViewOf(m.Vocab, H, m.Wy)
	gwy := tensor.ViewOf(m.Vocab, H, m.GWy)

	// Per-layer carried state gradients.
	m.dh.shape(L, B, H)
	m.dc.shape(L, B, H)
	tensor.Zero(m.dh.slab)
	tensor.Zero(m.dc.slab)
	dz := m.dz.get(B, 4*H)
	invT := float32(1.0 / float64(T))

	for t := T - 1; t >= 0; t-- {
		dlog := m.dlogits.at(t)
		// Scale: Forward averaged CE over T steps.
		tensor.Scale(dlog.Data, invT)
		top := L - 1
		tensor.GemmAdd(gwy, dlog.T(), m.layerInput(L, t).View(), tensor.Single)
		tensor.ColSums(m.GBy, dlog)
		tensor.GemmAdd(m.dh.at(top).View(), dlog.View(), wy, tensor.Single)
		if t == 0 && onReady != nil {
			// No later write touches GWy/GBy: the projection span is final.
			onReady(m.paramOff[1+3*L])
		}

		// Backward through the stack, top to bottom; dx of layer l feeds
		// dh of layer l−1 (same timestep).
		for l := top; l >= 0; l-- {
			in := m.layerIn(l)
			wx := tensor.ViewOf(4*H, in, m.Wx[l])
			wh := tensor.ViewOf(4*H, H, m.Wh[l])
			gates, tanhC, cPrevM := m.gates.at(l*T+t), m.tanhC.at(l*T+t), m.cs.at(l*(T+1)+t)
			dh, dc := m.dh.at(l), m.dc.at(l)
			for b := 0; b < B; b++ {
				zr := gates.Row(b) // [i f g o] post-activation
				tr := tanhC.Row(b)
				cPrev := cPrevM.Row(b)
				dhr, dcr := dh.Row(b), dc.Row(b)
				dzr := dz.Row(b)
				for j := 0; j < H; j++ {
					ig, fg, gg, og := zr[j], zr[H+j], zr[2*H+j], zr[3*H+j]
					dcTot := dcr[j] + dhr[j]*og*(1-tr[j]*tr[j])
					dzr[3*H+j] = dhr[j] * tr[j] * og * (1 - og) // do
					dzr[j] = dcTot * gg * ig * (1 - ig)         // di
					dzr[H+j] = dcTot * cPrev[j] * fg * (1 - fg) // df
					dzr[2*H+j] = dcTot * ig * (1 - gg*gg)       // dg
					dcr[j] = dcTot * fg                         // dc_{t-1}, in place
				}
			}
			// Parameter grads.
			tensor.GemmAdd(tensor.ViewOf(4*H, in, m.GWx[l]), dz.T(), m.layerInput(l, t).View(), tensor.Single)
			tensor.GemmAdd(tensor.ViewOf(4*H, H, m.GWh[l]), dz.T(), m.hs.at(l*(T+1)+t).View(), tensor.Single)
			tensor.ColSums(m.GB[l], dz)
			// dx: to the embedding (l=0) or to the layer below's dh.
			if l == 0 {
				dx := m.dx0.get(B, in)
				tensor.Gemm(dx.View(), dz.View(), wx, tensor.Single)
				for b := 0; b < B; b++ {
					tok := m.tokens[b][t]
					tensor.Add(m.GE[tok*m.Embed:(tok+1)*m.Embed], dx.Row(b))
				}
			} else {
				tensor.GemmAdd(m.dh.at(l-1).View(), dz.View(), wx, tensor.Single)
			}
			// dh_{t-1} for this layer; dz is complete, so dh can be
			// overwritten in place.
			tensor.Gemm(dh.View(), dz.View(), wh, tensor.Single)
			if t == 0 && onReady != nil {
				if l == 0 {
					// Layer 0's input backprop wrote the last embedding
					// gradients, so the whole vector is final.
					onReady(0)
				} else {
					onReady(m.paramOff[1+3*l])
				}
			}
		}
	}
	m.tokens = nil // the tapes are spent
}
