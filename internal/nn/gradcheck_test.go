package nn

import (
	"math"
	"testing"

	"a2sgd/internal/tensor"
)

// dot returns the inner product <a, b> accumulated in float64, so the
// finite-difference losses below stay well above float32 rounding noise.
func dot(a, b []float32) float64 {
	var s float64
	for i, x := range a {
		s += float64(x) * float64(b[i])
	}
	return s
}

// fdCheckLayer verifies a layer's analytic gradients against central finite
// differences. The scalar loss is L = Σ out·R for a fixed random readout R,
// so dL/dout = R exactly. Checks both parameter gradients and dL/dx.
func fdCheckLayer(t *testing.T, build func() Layer, rows, cols int, seed uint64, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	x := tensor.NewMat(rows, cols)
	rng.NormVec(x.Data, 0, 1)

	l := build()
	out := l.Forward(x, true)
	r := tensor.NewMat(out.Rows, out.Cols)
	tensor.NewRNG(seed+1).NormVec(r.Data, 0, 1)
	// The layer owns dx until its next call, and the parameter loop below
	// calls it again (loss(l, x)): keep a copy.
	dx := l.Backward(r).Clone()

	loss := func(lay Layer, in *tensor.Mat) float64 {
		o := lay.Forward(in, false)
		return dot(o.Data, r.Data)
	}

	const eps = 1e-2
	// Parameter gradients.
	for _, p := range l.Params() {
		checkEvery := 1
		if len(p.W) > 64 {
			checkEvery = len(p.W) / 48
		}
		for i := 0; i < len(p.W); i += checkEvery {
			old := p.W[i]
			p.W[i] = old + eps
			lp := loss(l, x)
			p.W[i] = old - eps
			lm := loss(l, x)
			p.W[i] = old
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.G[i])
			if !gradClose(numeric, analytic, tol) {
				t.Errorf("%s %s[%d]: numeric %v vs analytic %v", l.Name(), p.Name, i, numeric, analytic)
				return
			}
		}
	}
	// Input gradients.
	checkEvery := 1
	if len(x.Data) > 64 {
		checkEvery = len(x.Data) / 48
	}
	for i := 0; i < len(x.Data); i += checkEvery {
		old := x.Data[i]
		x.Data[i] = old + eps
		lp := loss(build(), x) // fresh layer: same init via identical seed inside build
		x.Data[i] = old - eps
		lm := loss(build(), x)
		x.Data[i] = old
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dx.Data[i])
		if !gradClose(numeric, analytic, tol) {
			t.Errorf("%s dx[%d]: numeric %v vs analytic %v", l.Name(), i, numeric, analytic)
			return
		}
	}
}

func gradClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestLinearGradients(t *testing.T) {
	fdCheckLayer(t, func() Layer { return NewLinear(tensor.NewRNG(7), 6, 4) }, 3, 6, 11, 2e-2)
}

func TestReLUGradients(t *testing.T) {
	fdCheckLayer(t, func() Layer { return NewReLU() }, 4, 10, 13, 2e-2)
}

func TestConv2DGradients(t *testing.T) {
	in := Shape{C: 2, H: 5, W: 5}
	fdCheckLayer(t, func() Layer {
		return NewConv2D(tensor.NewRNG(7), in, 3, 3, 1, 1)
	}, 2, in.Size(), 19, 3e-2)
}

func TestConv2DStride2Gradients(t *testing.T) {
	in := Shape{C: 2, H: 6, W: 6}
	fdCheckLayer(t, func() Layer {
		return NewConv2D(tensor.NewRNG(9), in, 2, 3, 2, 1)
	}, 2, in.Size(), 23, 3e-2)
}

func TestMaxPoolGradients(t *testing.T) {
	// Max-pool is piecewise linear with kinks at argmax ties, so finite
	// differences need well-separated inputs: use a scaled permutation.
	in := Shape{C: 2, H: 4, W: 4}
	rows := 2
	x := tensor.NewMat(rows, in.Size())
	perm := tensor.NewRNG(29).Perm(len(x.Data))
	for i, p := range perm {
		x.Data[i] = float32(p) * 0.5 * float32(1-2*(p%2)) // distinct, mixed signs
	}
	l := NewMaxPool2D(in, 2)
	out := l.Forward(x, true)
	r := tensor.NewMat(out.Rows, out.Cols)
	tensor.NewRNG(30).NormVec(r.Data, 0, 1)
	dx := l.Backward(r)
	const eps = 1e-2
	for i := range x.Data {
		old := x.Data[i]
		x.Data[i] = old + eps
		lp := dot(NewMaxPool2D(in, 2).Forward(x, false).Data, r.Data)
		x.Data[i] = old - eps
		lm := dot(NewMaxPool2D(in, 2).Forward(x, false).Data, r.Data)
		x.Data[i] = old
		numeric := (lp - lm) / (2 * eps)
		if !gradClose(numeric, float64(dx.Data[i]), 2e-2) {
			t.Fatalf("dx[%d]: numeric %v vs analytic %v", i, numeric, dx.Data[i])
		}
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	in := Shape{C: 3, H: 4, W: 4}
	fdCheckLayer(t, func() Layer { return NewGlobalAvgPool(in) }, 2, in.Size(), 31, 2e-2)
}

func TestResidualGradients(t *testing.T) {
	in := Shape{C: 2, H: 4, W: 4}
	fdCheckLayer(t, func() Layer {
		rng := tensor.NewRNG(5)
		return NewResidual("t",
			NewConv2D(rng, in, 2, 3, 1, 1),
			NewReLU(),
		)
	}, 2, in.Size(), 37, 3e-2)
}

// BatchNorm needs its own check because eval-mode Forward (used by the FD
// loss) and train-mode statistics differ; verify backward against a
// train-mode FD instead.
func TestBatchNormGradients(t *testing.T) {
	in := Shape{C: 2, H: 3, W: 3}
	rng := tensor.NewRNG(41)
	x := tensor.NewMat(4, in.Size())
	rng.NormVec(x.Data, 0.5, 2)

	build := func() *BatchNorm2D { return NewBatchNorm2D(in) }
	b := build()
	out := b.Forward(x, true)
	r := tensor.NewMat(out.Rows, out.Cols)
	tensor.NewRNG(42).NormVec(r.Data, 0, 1)
	dx := b.Backward(r)

	lossTrain := func(bb *BatchNorm2D, in *tensor.Mat) float64 {
		o := bb.Forward(in, true)
		return dot(o.Data, r.Data)
	}
	const eps = 1e-2
	// Gamma/beta grads.
	for pi, p := range b.Params() {
		for i := range p.W {
			bb := build()
			bb.Params()[pi].W[i] += eps
			lp := lossTrain(bb, x)
			bb = build()
			bb.Params()[pi].W[i] -= eps
			lm := lossTrain(bb, x)
			numeric := (lp - lm) / (2 * eps)
			if !gradClose(numeric, float64(p.G[i]), 3e-2) {
				t.Fatalf("%s[%d]: numeric %v vs analytic %v", p.Name, i, numeric, p.G[i])
			}
		}
	}
	// Input grads (sampled).
	for i := 0; i < len(x.Data); i += 7 {
		old := x.Data[i]
		x.Data[i] = old + eps
		lp := lossTrain(build(), x)
		x.Data[i] = old - eps
		lm := lossTrain(build(), x)
		x.Data[i] = old
		numeric := (lp - lm) / (2 * eps)
		if !gradClose(numeric, float64(dx.Data[i]), 5e-2) {
			t.Fatalf("dx[%d]: numeric %v vs analytic %v", i, numeric, dx.Data[i])
		}
	}
}

func TestSoftmaxCEGradients(t *testing.T) {
	rng := tensor.NewRNG(43)
	logits := tensor.NewMat(3, 5)
	rng.NormVec(logits.Data, 0, 2)
	labels := []int{1, 4, 0}
	_, d := SoftmaxCE(logits, labels)
	const eps = 1e-3
	for i := range logits.Data {
		old := logits.Data[i]
		logits.Data[i] = old + eps
		lp, _ := SoftmaxCE(logits, labels)
		logits.Data[i] = old - eps
		lm, _ := SoftmaxCE(logits, labels)
		logits.Data[i] = old
		numeric := (lp - lm) / (2 * eps)
		if !gradClose(numeric, float64(d.Data[i]), 1e-2) {
			t.Fatalf("dlogits[%d]: numeric %v vs analytic %v", i, numeric, d.Data[i])
		}
	}
}

func TestLSTMLMGradients(t *testing.T) {
	// Tiny model; FD over a sampled subset of every parameter tensor.
	build := func() *LSTMLM { return NewLSTMLM(tensor.NewRNG(3), 7, 4, 5) }
	m := build()
	tokens := [][]int{{1, 3, 5, 2}, {0, 6, 4, 1}}
	m.Forward(tokens, true)
	m.Backward()

	const eps = 1e-2
	for pi, p := range m.Params() {
		step := 1
		if len(p.W) > 30 {
			step = len(p.W) / 24
		}
		for i := 0; i < len(p.W); i += step {
			mp := build()
			mp.Params()[pi].W[i] += eps
			lp := mp.Forward(tokens, false)
			mm := build()
			mm.Params()[pi].W[i] -= eps
			lm := mm.Forward(tokens, false)
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.G[i])
			if !gradClose(numeric, analytic, 4e-2) {
				t.Fatalf("%s[%d]: numeric %v vs analytic %v", p.Name, i, numeric, analytic)
			}
		}
	}
}

func TestDeepLSTMLMGradients(t *testing.T) {
	// Two stacked layers; FD over a sampled subset of every tensor.
	build := func() *LSTMLM { return NewDeepLSTMLM(tensor.NewRNG(5), 6, 3, 4, 2) }
	m := build()
	tokens := [][]int{{1, 3, 5, 2}, {0, 2, 4, 1}}
	m.Forward(tokens, true)
	m.Backward()

	const eps = 1e-2
	for pi, p := range m.Params() {
		step := 1
		if len(p.W) > 30 {
			step = len(p.W) / 20
		}
		for i := 0; i < len(p.W); i += step {
			mp := build()
			mp.Params()[pi].W[i] += eps
			lp := mp.Forward(tokens, false)
			mm := build()
			mm.Params()[pi].W[i] -= eps
			lm := mm.Forward(tokens, false)
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.G[i])
			if !gradClose(numeric, analytic, 4e-2) {
				t.Fatalf("%s[%d]: numeric %v vs analytic %v", p.Name, i, numeric, analytic)
			}
		}
	}
}

func TestDeepLSTMLayerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 layers")
		}
	}()
	NewDeepLSTMLM(tensor.NewRNG(1), 8, 4, 4, 0)
}

func TestProjResidualGradients(t *testing.T) {
	// Downsampling residual block: stride-2 inner convs with a 1×1 stride-2
	// projection shortcut (the ResNet stage boundary).
	in := Shape{C: 2, H: 4, W: 4}
	fdCheckLayer(t, func() Layer {
		rng := tensor.NewRNG(11)
		c1 := NewConv2D(rng, in, 3, 3, 2, 1)
		pc := NewConv2D(rng, in, 3, 1, 2, 0)
		return NewProjResidual("t", []Layer{pc}, c1, NewReLU())
	}, 2, in.Size(), 41, 3e-2)
}
