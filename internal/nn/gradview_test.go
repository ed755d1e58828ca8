package nn

import (
	"math"
	"testing"

	"a2sgd/internal/tensor"
)

// gradViewNet builds a small multi-tensor network with distinct gradient
// values at every flattened offset.
func gradViewNet() *Network {
	rng := tensor.NewRNG(3)
	net := NewNetwork(
		NewLinear(rng, 7, 5), NewReLU(),
		NewLinear(rng, 5, 4), NewReLU(),
		NewLinear(rng, 4, 3),
	)
	i := 0
	for _, p := range net.Params() {
		for j := range p.G {
			p.G[j] = float32(i)
			i++
		}
	}
	return net
}

// flatGrads is the layout's oracle: every gradient tensor appended in
// Params() order.
func flatGrads(ps []Param) []float32 {
	var flat []float32
	for _, p := range ps {
		flat = append(flat, p.G...)
	}
	return flat
}

// TestGradViewMatchesGatherGrads: a view over any flattened range reads (and
// writes) exactly the elements the concatenation of the gradient tensors in
// Params() order holds there, including ranges that span parameter-tensor
// boundaries.
func TestGradViewMatchesGatherGrads(t *testing.T) {
	net := gradViewNet()
	n := net.NumParams()
	flat := flatGrads(net.Params())
	off := ParamOffsets(net.Params())
	if off[len(off)-1] != n {
		t.Fatalf("ParamOffsets total %d != NumParams %d", off[len(off)-1], n)
	}
	var grads, dst tensor.VecView
	GradViewOf(net.Params(), &grads)
	ranges := [][2]int{{0, n}, {0, 1}, {n - 1, n}, {3, n - 3}}
	// Every boundary-straddling window.
	for _, o := range off[1 : len(off)-1] {
		ranges = append(ranges, [2]int{o - 2, o + 2}, [2]int{o, o + 1})
	}
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		v := grads.SliceView(lo, hi, &dst)
		if v.Len() != hi-lo {
			t.Fatalf("SliceView(%d,%d).Len() = %d", lo, hi, v.Len())
		}
		got := make([]float32, v.Len())
		v.CopyTo(got)
		for i, x := range got {
			if x != flat[lo+i] {
				t.Fatalf("SliceView(%d,%d)[%d] = %v, want %v", lo, hi, i, x, flat[lo+i])
			}
		}
	}
	// Writes through the view land in live storage.
	v := grads.SliceView(2, n-2, &dst)
	v.Zero()
	for i, x := range flatGrads(net.Params()) {
		want := float32(0)
		if i < 2 || i >= n-2 {
			want = float32(i)
		}
		if x != want {
			t.Fatalf("after view Zero, flat[%d] = %v, want %v", i, x, want)
		}
	}
}

// TestLSTMBackwardInterleavedBitwise: BackwardInterleaved accumulates
// exactly the gradients Backward does, and reports readiness with strictly
// decreasing offsets — the output projection first, then each layer top-down,
// ending with a guaranteed 0.
func TestLSTMBackwardInterleavedBitwise(t *testing.T) {
	tokens := [][]int{{1, 5, 2, 7, 3}, {4, 0, 6, 2, 5}}
	build := func() *LSTMLM { return NewDeepLSTMLM(tensor.NewRNG(11), 8, 6, 5, 2) }

	ref := build()
	ref.Forward(tokens, true)
	ref.Backward()

	m := build()
	m.Forward(tokens, true)
	var offsets []int
	m.BackwardInterleaved(func(lo int) { offsets = append(offsets, lo) })

	rp, mp := ref.Params(), m.Params()
	for i := range rp {
		for j := range rp[i].G {
			if math.Float32bits(rp[i].G[j]) != math.Float32bits(mp[i].G[j]) {
				t.Fatalf("param %s grad [%d]: interleaved %v != plain %v",
					rp[i].Name, j, mp[i].G[j], rp[i].G[j])
			}
		}
	}

	if len(offsets) == 0 || offsets[len(offsets)-1] != 0 {
		t.Fatalf("offsets %v must end with 0", offsets)
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] >= offsets[i-1] {
			t.Fatalf("offsets %v not strictly decreasing", offsets)
		}
	}
	// First report is the output projection; one report per layer follows
	// (layer 0's is the final 0, covering the embedding too).
	po := m.ParamOffsets()
	want := []int{po[1+3*m.Layers]}
	for l := m.Layers - 1; l >= 1; l-- {
		want = append(want, po[1+3*l])
	}
	want = append(want, 0)
	if len(offsets) != len(want) {
		t.Fatalf("offsets %v, want %v", offsets, want)
	}
	for i := range want {
		if offsets[i] != want[i] {
			t.Fatalf("offsets %v, want %v", offsets, want)
		}
	}
}
