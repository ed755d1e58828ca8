package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"a2sgd/internal/tensor"
)

// Every layer writes into workspaces it keeps between calls, and a workspace
// is not cleared for it the way a fresh allocation was. These tests hold each
// layer to the result a fresh instance gives, bit for bit, on its SECOND and
// THIRD use — after a larger batch (stale data beyond the new extent) and
// after a smaller one (stale data inside it), with an evaluation pass on a
// different batch in between.

func bitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), fresh layer %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// relu-ish inputs: plenty of exact zeros and both signs, so stale positives
// under a new zero would show.
func reuseInput(rng *tensor.RNG, rows, cols int) *tensor.Mat {
	x := tensor.NewMat(rows, cols)
	for i := range x.Data {
		if rng.Intn(4) == 0 {
			continue
		}
		x.Data[i] = rng.Norm()
	}
	return x
}

func TestLayerWorkspaceReuseMatchesFreshLayer(t *testing.T) {
	in := Shape{C: 3, H: 6, W: 6}
	builders := map[string]func() Layer{
		"linear":        func() Layer { return NewLinear(tensor.NewRNG(1), in.Size(), 7) },
		"relu":          func() Layer { return NewReLU() },
		"conv3x3":       func() Layer { return NewConv2D(tensor.NewRNG(2), in, 4, 3, 1, 1) },
		"conv3x3s2":     func() Layer { return NewConv2D(tensor.NewRNG(3), in, 4, 3, 2, 1) },
		"conv1x1s2":     func() Layer { return NewConv2D(tensor.NewRNG(4), in, 5, 1, 2, 0) },
		"conv5x5":       func() Layer { return NewConv2D(tensor.NewRNG(5), in, 2, 5, 1, 2) },
		"maxpool":       func() Layer { return NewMaxPool2D(in, 2) },
		"globalavgpool": func() Layer { return NewGlobalAvgPool(in) },
		"batchnorm":     func() Layer { return NewBatchNorm2D(in) },
		"residual": func() Layer {
			rng := tensor.NewRNG(6)
			return NewResidual("t", NewConv2D(rng, in, 3, 3, 1, 1), NewBatchNorm2D(in), NewReLU())
		},
		"projresidual": func() Layer {
			rng := tensor.NewRNG(7)
			c1 := NewConv2D(rng, in, 4, 3, 2, 1)
			pc := NewConv2D(rng, in, 4, 1, 2, 0)
			return NewProjResidual("t", []Layer{pc, NewBatchNorm2D(pc.OutShape())}, c1, NewReLU())
		},
	}
	for name, build := range builders {
		rng := tensor.NewRNG(11)
		used := build()
		for _, rows := range []int{5, 9, 2} {
			x := reuseInput(rng, rows, in.Size())
			// An evaluation pass on another batch first: it shares the
			// workspaces and must leave nothing behind either.
			used.Forward(reuseInput(rng, rows+3, in.Size()), false)

			fresh := build()
			if sf, ok := fresh.(Stateful); ok { // carry batch-norm's running statistics over
				copyState(sf, used.(Stateful))
			}
			for _, l := range []Layer{used, fresh} {
				for _, p := range l.Params() {
					tensor.Zero(p.G)
				}
			}
			wantOut := fresh.Forward(x, true)
			gotOut := used.Forward(x, true)
			bitsEqual(t, name+" forward", gotOut.Data, wantOut.Data)
			dout := reuseInput(rng, wantOut.Rows, wantOut.Cols)
			bitsEqual(t, name+" backward", used.Backward(dout).Data, fresh.Backward(dout).Data)
			for i, p := range used.Params() {
				bitsEqual(t, name+" "+p.Name, p.G, fresh.Params()[i].G)
			}
			wantEval := fresh.Forward(x, false)
			bitsEqual(t, name+" eval", used.Forward(x, false).Data, wantEval.Data)
		}
	}
}

// The same for the LSTM's tapes: a longer and wider batch, then a shorter and
// narrower one, an evaluation in between.
func TestLSTMTapeReuseMatchesFreshModel(t *testing.T) {
	build := func() *LSTMLM { return NewDeepLSTMLM(tensor.NewRNG(3), 11, 4, 5, 2) }
	used := build()
	rng := tensor.NewRNG(13)
	tokens := func(b, t int) [][]int {
		out := make([][]int, b)
		for i := range out {
			out[i] = make([]int, t)
			for j := range out[i] {
				out[i][j] = rng.Intn(11)
			}
		}
		return out
	}
	for _, shape := range [][2]int{{3, 5}, {6, 9}, {2, 3}} {
		toks := tokens(shape[0], shape[1])
		used.Forward(tokens(shape[0]+2, shape[1]+1), false)
		fresh := build()
		for _, p := range used.Params() {
			tensor.Zero(p.G)
		}
		wantLoss, gotLoss := fresh.Forward(toks, true), used.Forward(toks, true)
		if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) {
			t.Fatalf("batch %v: loss %v, fresh model %v", shape, gotLoss, wantLoss)
		}
		fresh.Backward()
		used.Backward()
		for i, p := range used.Params() {
			bitsEqual(t, p.Name, p.G, fresh.Params()[i].G)
		}
		if a, b := used.Forward(toks, false), fresh.Forward(toks, false); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("batch %v: eval loss %v, fresh model %v", shape, a, b)
		}
	}
	// Backward needs a training Forward of its own.
	defer func() {
		if recover() == nil {
			t.Error("Backward after an evaluation Forward should panic")
		}
	}()
	used.Backward()
}

// ReLU's bit-pattern forms must agree with the comparisons they replaced on
// every class of input, including the ones a comparison treats specially.
func TestReLUMatchesBranchingDefinition(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	x := tensor.MatFrom(1, 12, []float32{0, negZero, 1, -1, inf, -inf, nan, -nan, 1e-45, -1e-45, 3.4e38, -3.4e38})
	dout := tensor.MatFrom(1, 12, []float32{1, 2, 3, 4, 5, 6, 7, 8, negZero, nan, inf, -inf})
	r := NewReLU()
	out := r.Forward(x, true)
	dx := r.Backward(dout)
	for i, v := range x.Data {
		var wantOut, wantDx float32
		if v > 0 {
			wantOut, wantDx = v, dout.Data[i]
		}
		if math.Float32bits(out.Data[i]) != math.Float32bits(wantOut) {
			t.Errorf("relu(%v) = %v (%#x), want %v", v, out.Data[i], math.Float32bits(out.Data[i]), wantOut)
		}
		if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx) {
			t.Errorf("relu'(%v)·%v = %v (%#x), want %v", v, dout.Data[i], dx.Data[i], math.Float32bits(dx.Data[i]), wantDx)
		}
	}
}

// The pool's backward writes each window once and gives the bits of
// clearing the input gradient and adding every output's gradient at its
// arg-max: a −0 gradient lands as +0, NaN and ±Inf pass through, and the
// other positions of a window are +0 — also over a workspace that held
// other values, at 2×2 and 3×3.
func TestMaxPoolBackwardMatchesZeroScatter(t *testing.T) {
	rng := tensor.NewRNG(31)
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0}
	for _, k := range []int{2, 3} {
		in := Shape{C: 3, H: 2 * k, W: 4 * k}
		m := NewMaxPool2D(in, k)
		for round := 0; round < 2; round++ {
			x := reuseInput(rng, 3, in.Size())
			m.Forward(x, true)
			dout := reuseInput(rng, 3, m.OutShape().Size())
			for i := range dout.Data {
				if i%3 == 0 {
					dout.Data[i] = specials[i/3%len(specials)]
				}
			}
			want := make([]float32, 3*in.Size())
			for o, v := range dout.Data {
				s := o / m.OutShape().Size()
				want[s*in.Size()+int(m.argm[o])] += v
			}
			bitsEqual(t, fmt.Sprintf("k%d round %d dx", k, round), m.Backward(dout).Data, want)
		}
	}
}

// A window with nothing above −Inf still owns its gradient: the arg-max
// starts at the window's first element, not at element 0 of the sample.
func TestMaxPoolAllNegInfWindowKeepsGradientInWindow(t *testing.T) {
	in := Shape{C: 2, H: 2, W: 4}
	x := tensor.NewMat(1, in.Size())
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	// Channel 1, right-hand window: elements (y, x) ∈ {0,1}×{2,3}.
	ninf := float32(math.Inf(-1))
	window := []int{8 + 2, 8 + 3, 8 + 4 + 2, 8 + 4 + 3}
	for _, i := range window {
		x.Data[i] = ninf
	}
	m := NewMaxPool2D(in, 2)
	out := m.Forward(x, true)
	if out.Data[3] != ninf {
		t.Fatalf("pooled value %v, want -Inf", out.Data[3])
	}
	dout := tensor.MatFrom(1, 4, []float32{1, 2, 3, 4})
	dx := m.Backward(dout)
	if dx.Data[window[0]] != 4 {
		t.Errorf("gradient of the all -Inf window went to %v, want its first element", dx.Data)
	}
	if dx.Data[0] != 0 {
		t.Errorf("element 0 of the sample received %v from a window it is not in", dx.Data[0])
	}
}

// naiveConv is the direct definition of the convolution, its loops in the
// order the lowering promises for every sum: forward over (c, ky, kx)
// ascending in float32; dW per sample over pixels in float32, samples added
// in order; dx per pixel over (ky, kx) ascending, each term a float32 sum
// over output channels ascending.
func naiveConv(c *Conv2D, x, dout *tensor.Mat) (res, dx *tensor.Mat, gw, gb []float32) {
	out := c.OutShape()
	k := c.In.C * c.KH * c.KW
	at := func(sample []float32, ch, iy, ix int) float32 {
		if iy < 0 || iy >= c.In.H || ix < 0 || ix >= c.In.W {
			return 0
		}
		return sample[(ch*c.In.H+iy)*c.In.W+ix]
	}
	res = tensor.NewMat(x.Rows, out.Size())
	dx = tensor.NewMat(x.Rows, c.In.Size())
	gw, gb = make([]float32, len(c.W)), make([]float32, c.OutC)
	for s := 0; s < x.Rows; s++ {
		for oc := 0; oc < c.OutC; oc++ {
			var bsum float64
			for oy := 0; oy < out.H; oy++ {
				for ox := 0; ox < out.W; ox++ {
					var acc float32
					for ch := 0; ch < c.In.C; ch++ {
						for ky := 0; ky < c.KH; ky++ {
							for kx := 0; kx < c.KW; kx++ {
								w := c.W[oc*k+(ch*c.KH+ky)*c.KW+kx]
								acc += float32(w * at(x.Row(s), ch, oy*c.Stride+ky-c.Pad, ox*c.Stride+kx-c.Pad))
							}
						}
					}
					res.Row(s)[(oc*out.H+oy)*out.W+ox] = acc + c.B[oc]
					bsum += float64(dout.Row(s)[(oc*out.H+oy)*out.W+ox])
				}
			}
			gb[oc] += float32(bsum)
			for ch := 0; ch < c.In.C; ch++ {
				for ky := 0; ky < c.KH; ky++ {
					for kx := 0; kx < c.KW; kx++ {
						var acc float32
						for oy := 0; oy < out.H; oy++ {
							for ox := 0; ox < out.W; ox++ {
								d := dout.Row(s)[(oc*out.H+oy)*out.W+ox]
								acc += float32(d * at(x.Row(s), ch, oy*c.Stride+ky-c.Pad, ox*c.Stride+kx-c.Pad))
							}
						}
						gw[oc*k+(ch*c.KH+ky)*c.KW+kx] += acc
					}
				}
			}
		}
		for ch := 0; ch < c.In.C; ch++ {
			for ky := 0; ky < c.KH; ky++ {
				for kx := 0; kx < c.KW; kx++ {
					for oy := 0; oy < out.H; oy++ {
						for ox := 0; ox < out.W; ox++ {
							iy, ix := oy*c.Stride+ky-c.Pad, ox*c.Stride+kx-c.Pad
							if iy < 0 || iy >= c.In.H || ix < 0 || ix >= c.In.W {
								continue
							}
							var acc float32
							for oc := 0; oc < c.OutC; oc++ {
								acc += float32(c.W[oc*k+(ch*c.KH+ky)*c.KW+kx] * dout.Row(s)[(oc*out.H+oy)*out.W+ox])
							}
							dx.Row(s)[(ch*c.In.H+iy)*c.In.W+ix] += acc
						}
					}
				}
			}
		}
	}
	return res, dx, gw, gb
}

// The lowered convolution equals the direct one bit for bit on geometries
// that stress the run table: kernels wider than the image, padding wider than
// the kernel's reach, strides that skip the last column, one-pixel images.
func TestConv2DMatchesDirectConvolution(t *testing.T) {
	type geom struct {
		in                   Shape
		outC, k, stride, pad int
	}
	geoms := []geom{
		{Shape{C: 3, H: 16, W: 16}, 4, 3, 1, 1}, // wide rows: the run-copy path
		{Shape{C: 2, H: 9, W: 12}, 3, 3, 1, 1},
		{Shape{C: 2, H: 4, W: 4}, 3, 3, 1, 1},
		{Shape{C: 2, H: 2, W: 2}, 3, 3, 1, 1},
		{Shape{C: 2, H: 1, W: 1}, 2, 3, 1, 1},
		{Shape{C: 1, H: 2, W: 3}, 2, 5, 1, 2}, // kernel wider than the image
		{Shape{C: 2, H: 5, W: 5}, 2, 3, 1, 3}, // padding beyond the kernel's reach
		{Shape{C: 2, H: 7, W: 6}, 3, 3, 2, 1},
		{Shape{C: 2, H: 8, W: 8}, 2, 3, 3, 0}, // stride skips trailing columns
		{Shape{C: 3, H: 6, W: 6}, 4, 1, 2, 0},
		{Shape{C: 1, H: 5, W: 9}, 2, 2, 1, 0}, // even kernel, no padding
		{Shape{C: 1, H: 12, W: 12}, 2, 5, 1, 2},
		// Shifted blocks (stride 1, as many output as input columns) with
		// gaps of 0, 1 and 2 pixels, and the stride-2 and wide-padding forms
		// that move row by row, on 1×1, 2×2 and 16×16 images.
		{Shape{C: 2, H: 16, W: 16}, 3, 1, 1, 0},
		{Shape{C: 2, H: 16, W: 16}, 2, 5, 1, 2},
		{Shape{C: 2, H: 16, W: 16}, 2, 3, 1, 2},
		{Shape{C: 2, H: 16, W: 16}, 3, 3, 2, 0},
		{Shape{C: 2, H: 16, W: 16}, 3, 3, 2, 1},
		{Shape{C: 2, H: 16, W: 16}, 3, 3, 2, 2},
		{Shape{C: 3, H: 2, W: 2}, 2, 3, 2, 0},
		{Shape{C: 3, H: 2, W: 2}, 2, 3, 2, 1},
		{Shape{C: 3, H: 2, W: 2}, 2, 3, 2, 2},
		{Shape{C: 3, H: 2, W: 2}, 2, 1, 1, 0},
		{Shape{C: 3, H: 1, W: 1}, 2, 1, 1, 0},
		{Shape{C: 3, H: 1, W: 1}, 2, 3, 2, 2},
	}
	rng := tensor.NewRNG(17)
	for _, g := range geoms {
		c := NewConv2D(rng, g.in, g.outC, g.k, g.stride, g.pad)
		rng.NormVec(c.B, 0, 1)
		for _, rows := range []int{3, 1} {
			x := reuseInput(rng, rows, g.in.Size())
			dout := reuseInput(rng, rows, c.OutShape().Size())
			tensor.Zero(c.GW)
			tensor.Zero(c.GB)
			res := c.Forward(x, true)
			wantRes, wantDx, wantGW, wantGB := naiveConv(c, x, dout)
			bitsEqual(t, c.Name()+" forward", res.Data, wantRes.Data)
			bitsEqual(t, c.Name()+" dx", c.Backward(dout).Data, wantDx.Data)
			bitsEqual(t, c.Name()+" dW", c.GW, wantGW)
			bitsEqual(t, c.Name()+" db", c.GB, wantGB)
		}
	}
}

// A network forwards an evaluation batch in chunks of its training batch:
// same bits, and no layer workspace grows beyond the training step's.
func TestNetworkEvalChunksMatchWholeBatch(t *testing.T) {
	in := Shape{C: 2, H: 6, W: 6}
	build := func() *Network {
		rng := tensor.NewRNG(19)
		conv := NewConv2D(rng, in, 3, 3, 1, 1)
		return NewNetwork(conv, NewBatchNorm2D(conv.OutShape()), NewReLU(),
			NewMaxPool2D(conv.OutShape(), 2), NewLinear(rng, 3*3*3, 5))
	}
	rng := tensor.NewRNG(23)
	tb, eb := reuseInput(rng, 4, in.Size()), reuseInput(rng, 11, in.Size())
	whole, chunked := build(), build()
	chunked.Forward(tb, true)
	chunked.Backward(reuseInput(rng, 4, 5))
	// whole has never trained, so it forwards the batch in one piece; give
	// it the running statistics the training step left in chunked.
	copyState(whole.Layers[1].(*BatchNorm2D), chunked.Layers[1].(*BatchNorm2D))
	want := whole.Forward(eb, false)
	bitsEqual(t, "chunked eval", chunked.Forward(eb, false).Data, want.Data)
	if rows := chunked.Layers[0].(*Conv2D).res.m.Rows; rows > 4 {
		t.Errorf("evaluation forwarded %d rows at once through a network trained on 4", rows)
	}
}

// copyState copies src's state tensors into dst's, position by position.
func copyState(dst, src Stateful) {
	for i, s := range src.State() {
		copy(dst.State()[i], s)
	}
}

func TestSoftmaxLossMatchesSoftmaxCE(t *testing.T) {
	rng := tensor.NewRNG(29)
	var l SoftmaxLoss
	for _, rows := range []int{4, 9, 2} {
		logits := tensor.NewMat(rows, 6)
		rng.NormVec(logits.Data, 0, 3)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = rng.Intn(6)
		}
		wantLoss, wantD := SoftmaxCE(logits, labels)
		gotLoss, gotD := l.Loss(logits, labels)
		if math.Float64bits(wantLoss) != math.Float64bits(gotLoss) {
			t.Fatalf("loss %v vs %v", gotLoss, wantLoss)
		}
		bitsEqual(t, "dlogits", gotD.Data, wantD.Data)
	}
}

// A Network whose caller does not take the input gradient runs its bottom
// layer without one: the same parameter gradients as Backward, and the
// layer's input-gradient workspace never touched.
func TestBackwardInterleavedSkipsBottomInputGradient(t *testing.T) {
	in := Shape{C: 2, H: 6, W: 6}
	for name, bottom := range map[string]func(rng *tensor.RNG) Layer{
		"conv":   func(rng *tensor.RNG) Layer { return NewConv2D(rng, in, 3, 3, 1, 1) },
		"linear": func(rng *tensor.RNG) Layer { return NewLinear(rng, in.Size(), 3*in.H*in.W) },
	} {
		build := func() (*Network, *buf) {
			rng := tensor.NewRNG(31)
			l := bottom(rng)
			net := NewNetwork(l, NewReLU(), NewLinear(rng, 3*in.H*in.W, 4))
			if c, ok := l.(*Conv2D); ok {
				return net, &c.dx
			}
			return net, &l.(*Linear).dx
		}
		rng := tensor.NewRNG(37)
		x, dout := reuseInput(rng, 5, in.Size()), reuseInput(rng, 5, 4)
		ref, _ := build()
		ref.Forward(x, true)
		ref.Backward(dout)
		net, dx := build()
		net.Forward(x, true)
		net.BackwardInterleaved(dout, nil)
		if dx.m.Data != nil {
			t.Errorf("%s: the bottom layer formed an input gradient nobody takes", name)
		}
		for i, p := range net.Params() {
			bitsEqual(t, name+" "+p.Name, p.G, ref.Params()[i].G)
		}
	}
}

// An evaluation Forward between a training Forward and its Backward reuses
// the workspaces the training record lives in, so Backward must refuse to
// run — naming the layer — instead of differentiating the evaluation batch.
// A training Forward makes the record valid again.
func TestBackwardAfterEvalForwardPanics(t *testing.T) {
	in := Shape{C: 2, H: 4, W: 4}
	layers := map[string]func() Layer{
		"Conv2D":        func() Layer { return NewConv2D(tensor.NewRNG(1), in, 3, 3, 1, 1) },
		"Linear":        func() Layer { return NewLinear(tensor.NewRNG(2), in.Size(), 5) },
		"ReLU":          func() Layer { return NewReLU() },
		"BatchNorm2D":   func() Layer { return NewBatchNorm2D(in) },
		"MaxPool2D":     func() Layer { return NewMaxPool2D(in, 2) },
		"GlobalAvgPool": func() Layer { return NewGlobalAvgPool(in) },
		"Residual":      func() Layer { return NewResidual("t", NewBatchNorm2D(in)) },
	}
	for name, build := range layers {
		rng := tensor.NewRNG(3)
		l := build()
		x := reuseInput(rng, 3, in.Size())
		out := l.Forward(x, true)
		dout := reuseInput(rng, out.Rows, out.Cols)
		l.Forward(reuseInput(rng, 3, in.Size()), false)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) {
					t.Errorf("%s: Backward after an evaluation Forward: panic %q, want one naming the layer", name, msg)
				}
			}()
			l.Backward(dout)
		}()
		l.Forward(x, true)
		l.Backward(dout)
	}
}
