package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"a2sgd/internal/tensor"
)

// lstmReference is the time-major loop LSTMLM is held to: for each step the
// layers bottom-up, then the logits and the loss, every product per step
// through tensor.Gemm / GemmAdd on the step's B rows; the backward unwinds
// each step top-down the same way. It reads the model's weights and
// accumulates into the model's gradients, keeping its own activations.
type lstmReference struct {
	m            *LSTMLM
	tokens       [][]int
	emb          []*tensor.Mat   // [t]
	hs, cs       [][]*tensor.Mat // [l][t]: states after step t−1
	gates, tanhC [][]*tensor.Mat // [l][t]
	dlogits      []*tensor.Mat   // [t]
}

func (r *lstmReference) input(l, t int) *tensor.Mat {
	if l == 0 {
		return r.emb[t]
	}
	return r.hs[l-1][t+1]
}

func (r *lstmReference) forward(tokens [][]int) float64 {
	m := r.m
	B, T, H, L := len(tokens), len(tokens[0])-1, m.Hidden, m.Layers
	r.tokens = tokens
	r.emb, r.dlogits = make([]*tensor.Mat, T), make([]*tensor.Mat, T)
	r.hs, r.cs = make([][]*tensor.Mat, L), make([][]*tensor.Mat, L)
	r.gates, r.tanhC = make([][]*tensor.Mat, L), make([][]*tensor.Mat, L)
	for l := 0; l < L; l++ {
		r.hs[l], r.cs[l] = []*tensor.Mat{tensor.NewMat(B, H)}, []*tensor.Mat{tensor.NewMat(B, H)}
	}
	var ce SoftmaxLoss
	labels := make([]int, B)
	var total float64
	for t := 0; t < T; t++ {
		x := tensor.NewMat(B, m.Embed)
		for b := 0; b < B; b++ {
			tok := tokens[b][t]
			copy(x.Row(b), m.E[tok*m.Embed:(tok+1)*m.Embed])
		}
		r.emb[t] = x
		for l := 0; l < L; l++ {
			z, tc := tensor.NewMat(B, 4*H), tensor.NewMat(B, H)
			newH, newC := tensor.NewMat(B, H), tensor.NewMat(B, H)
			h, c := r.hs[l][t], r.cs[l][t]
			tensor.Gemm(z.View(), r.input(l, t).View(), tensor.ViewOf(4*H, m.layerIn(l), m.Wx[l]).T())
			tensor.GemmAdd(z.View(), h.View(), tensor.ViewOf(4*H, H, m.Wh[l]).T())
			tensor.AddRowVec(z, m.B[l])
			for b := 0; b < B; b++ {
				zr := z.Row(b)
				ig, fg, gg, og := zr[:H], zr[H:2*H], zr[2*H:3*H], zr[3*H:]
				tensor.Sigmoid(zr[:2*H], zr[:2*H])
				tensor.Tanh(gg, gg)
				tensor.Sigmoid(og, og)
				cr, tr, hr := newC.Row(b), tc.Row(b), newH.Row(b)
				for j, cp := range c.Row(b) {
					cr[j] = fg[j]*cp + ig[j]*gg[j]
				}
				tensor.Tanh(tr, cr)
				for j, o := range og {
					hr[j] = o * tr[j]
				}
			}
			r.gates[l], r.tanhC[l] = append(r.gates[l], z), append(r.tanhC[l], tc)
			r.hs[l], r.cs[l] = append(r.hs[l], newH), append(r.cs[l], newC)
		}
		logits := tensor.NewMat(B, m.Vocab)
		tensor.Gemm(logits.View(), r.input(L, t).View(), tensor.ViewOf(m.Vocab, H, m.Wy).T())
		tensor.AddRowVec(logits, m.By)
		for b := 0; b < B; b++ {
			labels[b] = tokens[b][t+1]
		}
		r.dlogits[t] = tensor.NewMat(B, m.Vocab)
		total += ce.into(r.dlogits[t], logits, labels)
	}
	return total / float64(T)
}

func (r *lstmReference) backward(onReady func(lo int)) {
	m := r.m
	off := m.ParamOffsets()
	B, T, H, L := len(r.tokens), len(r.dlogits), m.Hidden, m.Layers
	dh, dc := make([]*tensor.Mat, L), make([]*tensor.Mat, L)
	for l := range dh {
		dh[l], dc[l] = tensor.NewMat(B, H), tensor.NewMat(B, H)
	}
	dz := tensor.NewMat(B, 4*H)
	for t := T - 1; t >= 0; t-- {
		dlog := r.dlogits[t]
		tensor.Scale(dlog.Data, float32(1.0/float64(T)))
		tensor.GemmAdd(tensor.ViewOf(m.Vocab, H, m.GWy), dlog.T(), r.input(L, t).View())
		tensor.ColSums(m.GBy, dlog)
		tensor.GemmAdd(dh[L-1].View(), dlog.View(), tensor.ViewOf(m.Vocab, H, m.Wy))
		if t == 0 {
			onReady(off[1+3*L])
		}
		for l := L - 1; l >= 0; l-- {
			in := m.layerIn(l)
			z, tc, cPrev := r.gates[l][t], r.tanhC[l][t], r.cs[l][t]
			for b := 0; b < B; b++ {
				zr, tr, cp := z.Row(b), tc.Row(b), cPrev.Row(b)
				dhr, dcr, dzr := dh[l].Row(b), dc[l].Row(b), dz.Row(b)
				for j := 0; j < H; j++ {
					ig, fg, gg, og := zr[j], zr[H+j], zr[2*H+j], zr[3*H+j]
					dcTot := dcr[j] + dhr[j]*og*(1-tr[j]*tr[j])
					dzr[3*H+j] = dhr[j] * tr[j] * og * (1 - og)
					dzr[j] = dcTot * gg * ig * (1 - ig)
					dzr[H+j] = dcTot * cp[j] * fg * (1 - fg)
					dzr[2*H+j] = dcTot * ig * (1 - gg*gg)
					dcr[j] = dcTot * fg
				}
			}
			wx := tensor.ViewOf(4*H, in, m.Wx[l])
			tensor.GemmAdd(tensor.ViewOf(4*H, in, m.GWx[l]), dz.T(), r.input(l, t).View())
			tensor.GemmAdd(tensor.ViewOf(4*H, H, m.GWh[l]), dz.T(), r.hs[l][t].View())
			tensor.ColSums(m.GB[l], dz)
			if l == 0 {
				dx := tensor.NewMat(B, in)
				tensor.Gemm(dx.View(), dz.View(), wx)
				for b := 0; b < B; b++ {
					tok := r.tokens[b][t]
					tensor.Add(m.GE[tok*m.Embed:(tok+1)*m.Embed], dx.Row(b))
				}
			} else {
				tensor.GemmAdd(dh[l-1].View(), dz.View(), wx)
			}
			tensor.Gemm(dh[l].View(), dz.View(), tensor.ViewOf(4*H, H, m.Wh[l]))
			if t == 0 {
				if l == 0 {
					onReady(0)
				} else {
					onReady(off[1+3*l])
				}
			}
		}
	}
}

// lstmTokens draws B rows of T+1 tokens.
func lstmTokens(rng *tensor.RNG, vocab, B, T int) [][]int {
	out := make([][]int, B)
	for b := range out {
		out[b] = make([]int, T+1)
		for t := range out[b] {
			out[b][t] = rng.Intn(vocab)
		}
	}
	return out
}

// checkAgainstReference trains two copies of one model on the same batches,
// LSTMLM's batched schedule against the reference loop, and requires the
// same bits for every loss and gradient and the same readiness reports. The
// second batch accumulates onto the first one's gradients.
func checkAgainstReference(t *testing.T, name string, build func() *LSTMLM, B, T int) {
	t.Helper()
	got, ref := build(), build()
	r := &lstmReference{m: ref}
	rng := tensor.NewRNG(uint64(1000*B + T))
	for step := 0; step < 2; step++ {
		tokens := lstmTokens(rng, got.Vocab, B, T)
		wantLoss, gotLoss := r.forward(tokens), got.Forward(tokens, true)
		if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) {
			t.Fatalf("%s step %d: loss %v, reference %v", name, step, gotLoss, wantLoss)
		}
		var wantReady, gotReady []int
		r.backward(func(lo int) { wantReady = append(wantReady, lo) })
		got.BackwardInterleaved(func(lo int) { gotReady = append(gotReady, lo) })
		if fmt.Sprint(gotReady) != fmt.Sprint(wantReady) {
			t.Fatalf("%s step %d: onReady offsets %v, reference %v", name, step, gotReady, wantReady)
		}
		for i, p := range got.Params() {
			bitsEqual(t, fmt.Sprintf("%s step %d: %s", name, step, p.Name), p.G, ref.Params()[i].G)
		}
		evalTokens := lstmTokens(rng, got.Vocab, B, T)
		wantEval, gotEval := r.forward(evalTokens), got.Forward(evalTokens, false)
		if math.Float64bits(wantEval) != math.Float64bits(gotEval) {
			t.Fatalf("%s step %d: eval loss %v, reference %v", name, step, gotEval, wantEval)
		}
	}
}

// TestLSTMMatchesTimeMajorReference holds the layer-major, sequence-batched
// LSTMLM to the time-major loop with per-step products, bit for bit, over
// depth × batch × length — a batched product that read the wrong tape rows,
// or an add-back out of order, moves a bit here even where the reduced
// model's golden digests (one layer) cannot see it. The last shape's
// batched products exceed twice the tensor package's row-parallel threshold
// (2²⁵ multiply-adds; T·B·4H·E = 704·640·160 ≈ 72 M), so they run split
// over rows while the reference's per-step products do not.
func TestLSTMMatchesTimeMajorReference(t *testing.T) {
	for _, L := range []int{1, 2, 3} {
		for _, B := range []int{1, 3, 16} {
			for _, T := range []int{1, 2, 11} {
				build := func() *LSTMLM { return NewDeepLSTMLM(tensor.NewRNG(uint64(L)), 13, 5, 6, L) }
				checkAgainstReference(t, fmt.Sprintf("L=%d B=%d T=%d", L, B, T), build, B, T)
			}
		}
	}
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	build := func() *LSTMLM { return NewDeepLSTMLM(tensor.NewRNG(7), 640, 160, 160, 2) }
	checkAgainstReference(t, "row-parallel", build, 64, 11)
}
