package nn

import (
	"fmt"

	"a2sgd/internal/tensor"
)

// Linear is a fully connected layer: out = x·Wᵀ + b with W of shape
// (outF, inF) — the building block of FNN-3 and every classifier head.
type Linear struct {
	InF, OutF int
	W, B      []float32
	GW, GB    []float32
	x         *tensor.Mat // cached input for backward
	out, dx   buf
	rec       record
}

// NewLinear builds a Linear layer with He initialization.
func NewLinear(rng *tensor.RNG, inF, outF int) *Linear {
	l := &Linear{
		InF: inF, OutF: outF,
		W: make([]float32, inF*outF), B: make([]float32, outF),
		GW: make([]float32, inF*outF), GB: make([]float32, outF),
	}
	InitHe(rng, l.W, inF)
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return fmt.Sprintf("Linear(%d→%d)", l.InF, l.OutF) }

// Params implements Layer.
func (l *Linear) Params() []Param {
	return []Param{{Name: l.Name() + ".W", W: l.W, G: l.GW}, {Name: l.Name() + ".b", W: l.B, G: l.GB}}
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.Cols != l.InF {
		panic(fmt.Sprintf("nn: %s got %d features", l.Name(), x.Cols))
	}
	l.rec.forward(train)
	if train {
		l.x = x
	}
	out := l.out.get(x.Rows, l.OutF)
	tensor.Gemm(out.View(), x.View(), tensor.ViewOf(l.OutF, l.InF, l.W).T())
	tensor.AddRowVec(out, l.B)
	return out
}

// Backward implements Layer: dW += doutᵀ·x, db += Σ dout, dx = dout·W.
func (l *Linear) Backward(dout *tensor.Mat) *tensor.Mat {
	l.backwardParams(dout)
	dx := l.dx.get(dout.Rows, l.InF)
	tensor.Gemm(dx.View(), dout.View(), tensor.ViewOf(l.OutF, l.InF, l.W))
	return dx
}

// backwardParams implements paramsBackward: dW and db alone.
func (l *Linear) backwardParams(dout *tensor.Mat) {
	l.rec.check(l)
	tensor.GemmAdd(tensor.ViewOf(l.OutF, l.InF, l.GW), dout.T(), l.x.View())
	tensor.ColSums(l.GB, dout)
}

// ReLU is the rectified linear activation. Both directions are branch-free:
// on a zero-centred pre-activation a sign branch mispredicts every other
// element.
type ReLU struct {
	out, dx buf
	rec     record
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// Forward implements Layer: out = x where x > 0, +0 elsewhere (−0 and NaN
// included), on the bit patterns (tensor.ReLU).
func (r *ReLU) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	r.rec.forward(train)
	out := r.out.get(x.Rows, x.Cols)
	tensor.ReLU(out.Data[:len(x.Data)], x.Data)
	return out
}

// Backward implements Layer. The mask is the layer's own output: it is
// nonzero exactly where the input was positive (tensor.ReLUGrad).
func (r *ReLU) Backward(dout *tensor.Mat) *tensor.Mat {
	r.rec.check(r)
	dx := r.dx.get(dout.Rows, dout.Cols)
	tensor.ReLUGrad(dx.Data[:len(dout.Data)], dout.Data, r.out.m.Data[:len(dout.Data)])
	return dx
}

// Residual wraps an inner stack and adds its (possibly transformed) input
// to its output — the shortcut connection of ResNet. With a nil projection
// the shortcut is the identity and input/output shapes must match; with a
// projection stack (e.g. a 1×1 strided convolution plus batch norm, as in
// ResNet's stage transitions) the projection's output shape must match the
// inner stack's.
type Residual struct {
	Inner   []Layer
	Proj    []Layer // nil = identity shortcut
	label   string
	out, dx buf
	rec     record
}

// NewResidual builds an identity-shortcut residual block.
func NewResidual(label string, inner ...Layer) *Residual {
	return &Residual{Inner: inner, label: label}
}

// NewProjResidual builds a residual block whose shortcut applies proj —
// the downsampling block at ResNet stage boundaries.
func NewProjResidual(label string, proj []Layer, inner ...Layer) *Residual {
	return &Residual{Inner: inner, Proj: proj, label: label}
}

// Name implements Layer.
func (r *Residual) Name() string { return "Residual(" + r.label + ")" }

// Params implements Layer.
func (r *Residual) Params() []Param {
	var ps []Param
	for _, l := range r.Inner {
		ps = append(ps, l.Params()...)
	}
	for _, l := range r.Proj {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// State implements Stateful: the nested batch-norm layers' state, inner
// stack first, then the projection (matching Params order).
func (r *Residual) State() [][]float32 { return stateOf(r.Inner, r.Proj) }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	r.rec.forward(train)
	y := x
	for _, l := range r.Inner {
		y = l.Forward(y, train)
	}
	s := x
	for _, l := range r.Proj {
		s = l.Forward(s, train)
	}
	if y.Rows != s.Rows || y.Cols != s.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d",
			r.Name(), y.Rows, y.Cols, s.Rows, s.Cols))
	}
	out := r.out.get(y.Rows, y.Cols)
	for i := range out.Data {
		out.Data[i] = s.Data[i] + y.Data[i]
	}
	return out
}

// Backward implements Layer: gradient flows through both paths and sums.
func (r *Residual) Backward(dout *tensor.Mat) *tensor.Mat {
	r.rec.check(r)
	d := dout
	for i := len(r.Inner) - 1; i >= 0; i-- {
		d = r.Inner[i].Backward(d)
	}
	ds := dout
	for i := len(r.Proj) - 1; i >= 0; i-- {
		ds = r.Proj[i].Backward(ds)
	}
	dx := r.dx.get(d.Rows, d.Cols)
	for i := range dx.Data {
		dx.Data[i] = ds.Data[i] + d.Data[i]
	}
	return dx
}
