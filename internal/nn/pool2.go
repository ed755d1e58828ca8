package nn

import (
	"fmt"
	"math"

	"a2sgd/internal/tensor"
)

// AvgPool2D is a k×k average pool with stride k (non-overlapping) — the
// pooling variant some VGG deployments use in place of max pooling.
type AvgPool2D struct {
	In      Shape
	K       int
	res, dx buf
}

// NewAvgPool2D builds the layer; In.H and In.W must be divisible by k.
func NewAvgPool2D(in Shape, k int) *AvgPool2D {
	if in.H%k != 0 || in.W%k != 0 {
		panic(fmt.Sprintf("nn: avgpool %d does not divide %dx%d", k, in.H, in.W))
	}
	return &AvgPool2D{In: in, K: k}
}

// OutShape returns the pooled volume shape.
func (a *AvgPool2D) OutShape() Shape {
	return Shape{C: a.In.C, H: a.In.H / a.K, W: a.In.W / a.K}
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return fmt.Sprintf("AvgPool2D(k%d)", a.K) }

// Params implements Layer.
func (a *AvgPool2D) Params() []Param { return nil }

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	out := a.OutShape()
	res := a.res.get(x.Rows, out.Size())
	inv := 1 / float32(a.K*a.K)
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		dst := res.Row(s)
		for ch := 0; ch < a.In.C; ch++ {
			chIn := ch * a.In.H * a.In.W
			chOut := ch * out.H * out.W
			for oy := 0; oy < out.H; oy++ {
				for ox := 0; ox < out.W; ox++ {
					var sum float32
					for ky := 0; ky < a.K; ky++ {
						for kx := 0; kx < a.K; kx++ {
							sum += in[chIn+(oy*a.K+ky)*a.In.W+ox*a.K+kx]
						}
					}
					dst[chOut+oy*out.W+ox] = sum * inv
				}
			}
		}
	}
	return res
}

// Backward implements Layer: the gradient spreads uniformly over the window.
func (a *AvgPool2D) Backward(dout *tensor.Mat) *tensor.Mat {
	out := a.OutShape()
	dx := a.dx.get(dout.Rows, a.In.Size())
	tensor.Zero(dx.Data)
	inv := 1 / float32(a.K*a.K)
	for s := 0; s < dout.Rows; s++ {
		src := dout.Row(s)
		dst := dx.Row(s)
		for ch := 0; ch < a.In.C; ch++ {
			chIn := ch * a.In.H * a.In.W
			chOut := ch * out.H * out.W
			for oy := 0; oy < out.H; oy++ {
				for ox := 0; ox < out.W; ox++ {
					g := src[chOut+oy*out.W+ox] * inv
					for ky := 0; ky < a.K; ky++ {
						for kx := 0; kx < a.K; kx++ {
							dst[chIn+(oy*a.K+ky)*a.In.W+ox*a.K+kx] += g
						}
					}
				}
			}
		}
	}
	return dx
}

// Sigmoid is the logistic activation layer.
type Sigmoid struct {
	out, dx buf
}

// NewSigmoid builds a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "Sigmoid" }

// Params implements Layer.
func (s *Sigmoid) Params() []Param { return nil }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	out := s.out.get(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

// Backward implements Layer: dx = dout · y(1−y), from the layer's own output.
func (s *Sigmoid) Backward(dout *tensor.Mat) *tensor.Mat {
	dx := s.dx.get(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		y := s.out.m.Data[i]
		dx.Data[i] = v * y * (1 - y)
	}
	return dx
}
