package nn

import (
	"fmt"
	"math"

	"a2sgd/internal/tensor"
)

// Shape describes a (channels, height, width) activation volume flattened
// row-major into each matrix row.
type Shape struct {
	C, H, W int
}

// Size returns C·H·W.
func (s Shape) Size() int { return s.C * s.H * s.W }

// Conv2D is a 2-D convolution implemented with im2col + matrix multiply —
// the textbook GPU-style lowering. Stride and zero-padding are configurable;
// the VGG/ResNet builders use 3×3, stride 1, pad 1.
//
// The lowering is batched: the tape holds one row per (channel, ky, kx) and
// one column per (sample, output pixel), so the forward product and the
// column gradient are each ONE matrix multiply per pass whatever the spatial
// extent — late VGG stages have 2×2 outputs, and a per-sample multiply over
// rows of four floats cannot fill a vector. Every output element is still
// the same sum over the same terms in the same order; only the weight
// gradient, whose terms a batched product would sum across samples in a
// different association, stays one product per sample added in sample order.
type Conv2D struct {
	In          Shape
	OutC        int
	KH, KW      int
	Stride, Pad int

	W, B   []float32 // W is (OutC, In.C·KH·KW) row-major
	GW, GB []float32

	runs  [][]convRun // per kernel position, see kernelRuns
	tape  buf         // lowered input: (In.C·KH·KW) × (samples·oh·ow)
	cmaj  buf         // OutC × (samples·oh·ow): the forward product, then dout, channel-major
	dcols buf         // gradient of the tape
	res   buf
	dx    buf
}

// NewConv2D builds a convolution layer with He initialization.
func NewConv2D(rng *tensor.RNG, in Shape, outC, k, stride, pad int) *Conv2D {
	c := &Conv2D{In: in, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad}
	fanIn := in.C * k * k
	c.W = make([]float32, outC*fanIn)
	c.B = make([]float32, outC)
	c.GW = make([]float32, len(c.W))
	c.GB = make([]float32, outC)
	InitHe(rng, c.W, fanIn)
	return c
}

// OutShape returns the output volume shape.
func (c *Conv2D) OutShape() Shape {
	oh := (c.In.H+2*c.Pad-c.KH)/c.Stride + 1
	ow := (c.In.W+2*c.Pad-c.KW)/c.Stride + 1
	return Shape{C: c.OutC, H: oh, W: ow}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%dx%dx%d→%d,k%d,s%d)", c.In.C, c.In.H, c.In.W, c.OutC, c.KH, c.Stride)
}

// Params implements Layer.
func (c *Conv2D) Params() []Param {
	return []Param{{Name: c.Name() + ".W", W: c.W, G: c.GW}, {Name: c.Name() + ".b", W: c.B, G: c.GB}}
}

// convRun is a stretch of n consecutive output pixels of one channel whose
// input pixels — Stride apart, from in on — all lie inside the image.
type convRun struct{ out, in, n int }

// convRunMin is the run length from which a stride-1 run moves as one copy
// or vector add; shorter runs (the late VGG stages are 4 and 2 pixels wide)
// are cheaper element by element than call by call.
const convRunMin = 8

// kernelRuns returns, for kernel position (ky, kx), the runs that pair every
// output pixel with its input pixel when that lies inside the image — one
// run per output row at most; output pixels in no run read padding. The
// geometry is fixed at construction, so the table is built once.
func (c *Conv2D) kernelRuns(ky, kx int) []convRun {
	if c.runs == nil {
		out := c.OutShape()
		c.runs = make([][]convRun, c.KH*c.KW)
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				// ox·Stride + kx − Pad ∈ [0, In.W) ⇔ ox ∈ [lo, hi).
				lo, hi := max(0, (c.Pad-kx+c.Stride-1)/c.Stride), 0
				if last := c.In.W - 1 + c.Pad - kx; last >= 0 {
					hi = min(out.W, last/c.Stride+1)
				}
				for oy := 0; oy < out.H && lo < hi; oy++ {
					if iy := oy*c.Stride + ky - c.Pad; iy >= 0 && iy < c.In.H {
						c.runs[ky*c.KW+kx] = append(c.runs[ky*c.KW+kx],
							convRun{out: oy*out.W + lo, in: iy*c.In.W + lo*c.Stride + kx - c.Pad, n: hi - lo})
					}
				}
			}
		}
	}
	return c.runs[ky*c.KW+kx]
}

// im2col lowers x into the tape, one column block of oh·ow per sample,
// writing every element: padding positions are stored as
// zeros, not left to a freshly allocated matrix. The tape is filled row by
// row — all samples of one (channel, ky, kx) before the next — so the stores
// walk memory forwards.
func (c *Conv2D) im2col(x, tape *tensor.Mat) {
	out := c.OutShape()
	ohw, ihw := out.H*out.W, c.In.H*c.In.W
	for ch := 0; ch < c.In.C; ch++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				row := tape.Row((ch*c.KH+ky)*c.KW + kx)
				runs := c.kernelRuns(ky, kx)
				if len(runs) < out.H || runs[0].n < out.W {
					clear(row) // some pixel of every sample reads padding
				}
				for s := 0; s < x.Rows; s++ {
					src := x.Row(s)[ch*ihw : (ch+1)*ihw]
					dst := row[s*ohw : (s+1)*ohw]
					for _, r := range runs {
						d, in := dst[r.out:r.out+r.n], src[r.in:]
						if c.Stride == 1 && r.n >= convRunMin {
							copy(d, in)
							continue
						}
						for j := range d {
							d[j] = in[j*c.Stride]
						}
					}
				}
			}
		}
	}
}

// col2im scatters the tape gradient back onto the (cleared) input gradient,
// one column block of oh·ow per sample. Each input pixel receives its
// contributions in ascending (ky, kx) order, at most one per kernel position
// — the order the sums have always had.
func (c *Conv2D) col2im(dcols, dx *tensor.Mat) {
	out := c.OutShape()
	ohw, ihw := out.H*out.W, c.In.H*c.In.W
	for ch := 0; ch < c.In.C; ch++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				row := dcols.Row((ch*c.KH+ky)*c.KW + kx)
				runs := c.kernelRuns(ky, kx)
				for s := 0; s < dx.Rows; s++ {
					dst := dx.Row(s)[ch*ihw : (ch+1)*ihw]
					src := row[s*ohw : (s+1)*ohw]
					for _, r := range runs {
						d, in := src[r.out:r.out+r.n], dst[r.in:]
						if c.Stride == 1 && r.n >= convRunMin {
							tensor.Add(in[:r.n], d)
							continue
						}
						for j, v := range d {
							in[j*c.Stride] += v
						}
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.Cols != c.In.Size() {
		panic(fmt.Sprintf("nn: %s got %d features, want %d", c.Name(), x.Cols, c.In.Size()))
	}
	out := c.OutShape()
	ohw, k := out.H*out.W, c.In.C*c.KH*c.KW
	n := x.Rows * ohw
	res := c.res.get(x.Rows, out.Size())
	tape := c.tape.get(k, n)
	c.im2col(x, tape)
	prod := c.cmaj.get(c.OutC, n)
	tensor.Gemm(prod.View(), tensor.ViewOf(c.OutC, k, c.W), tape.View(), tensor.Single)
	// Transpose the product into the sample-major output, adding the bias on
	// the way.
	for s := 0; s < x.Rows; s++ {
		dst := res.Row(s)
		for oc := 0; oc < c.OutC; oc++ {
			b := c.B[oc]
			src := prod.Data[oc*n+s*ohw : oc*n+(s+1)*ohw]
			d := dst[oc*ohw : (oc+1)*ohw]
			for i, v := range src {
				d[i] = v + b
			}
		}
	}
	return res
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Mat) *tensor.Mat {
	out := c.OutShape()
	ohw, k := out.H*out.W, c.In.C*c.KH*c.KW
	n := dout.Rows * ohw
	tape := &c.tape.m
	if tape.Rows != k || tape.Cols != n {
		panic(fmt.Sprintf("nn: %s Backward on %d samples without a training Forward of that batch", c.Name(), dout.Rows))
	}
	// db += row sums of dout, sample by sample; and dout transposed to
	// channel-major, the layout of the tape's columns.
	doT := c.cmaj.get(c.OutC, n)
	for s := 0; s < dout.Rows; s++ {
		do := dout.Row(s)
		for oc := 0; oc < c.OutC; oc++ {
			src := do[oc*ohw : (oc+1)*ohw]
			c.GB[oc] += float32(tensor.Sum(src))
			copy(doT.Data[oc*n+s*ohw:], src)
		}
	}
	// dW += do × colsᵀ, one product per sample in sample order.
	gw := tensor.ViewOf(c.OutC, k, c.GW)
	for s := 0; s < dout.Rows; s++ {
		tensor.GemmAdd(gw, tensor.ViewOf(c.OutC, ohw, dout.Row(s)), tape.View().ColRange(s*ohw, (s+1)*ohw).T(), tensor.Wide)
	}
	// dcols = Wᵀ × do over the whole batch, then scatter.
	dcols := c.dcols.get(k, n)
	tensor.Gemm(dcols.View(), tensor.ViewOf(c.OutC, k, c.W).T(), doT.View(), tensor.Single)
	dx := c.dx.get(dout.Rows, c.In.Size())
	tensor.Zero(dx.Data)
	c.col2im(dcols, dx)
	return dx
}

// MaxPool2D is a k×k max pool with stride k (non-overlapping).
type MaxPool2D struct {
	In      Shape
	K       int
	argm    []int32
	res, dx buf
}

// NewMaxPool2D builds the pooling layer; In.H and In.W must be divisible by k.
func NewMaxPool2D(in Shape, k int) *MaxPool2D {
	if in.H%k != 0 || in.W%k != 0 {
		panic(fmt.Sprintf("nn: maxpool %d does not divide %dx%d", k, in.H, in.W))
	}
	return &MaxPool2D{In: in, K: k}
}

// OutShape returns the pooled volume shape.
func (m *MaxPool2D) OutShape() Shape {
	return Shape{C: m.In.C, H: m.In.H / m.K, W: m.In.W / m.K}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(k%d)", m.K) }

// Params implements Layer.
func (m *MaxPool2D) Params() []Param { return nil }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	out := m.OutShape()
	res := m.res.get(x.Rows, out.Size())
	if train {
		m.argm = grow(m.argm, x.Rows*out.Size())
	}
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		dst := res.Row(s)
		for ch := 0; ch < m.In.C; ch++ {
			chIn := ch * m.In.H * m.In.W
			chOut := ch * out.H * out.W
			for oy := 0; oy < out.H; oy++ {
				for ox := 0; ox < out.W; ox++ {
					// The arg-max starts at the window's first element, so a
					// window with no element above −Inf (all −Inf, all NaN)
					// still routes its gradient into the window. The running
					// maximum is carried as its bit pattern: with both updates
					// on integers the compiler emits conditional moves, where
					// a float assignment would branch — and mispredict.
					best := math.Float32bits(float32(math.Inf(-1)))
					bi := chIn + oy*m.K*m.In.W + ox*m.K
					for ky := 0; ky < m.K; ky++ {
						base := chIn + (oy*m.K+ky)*m.In.W + ox*m.K
						for kx, v := range in[base : base+m.K] {
							vb, idx := math.Float32bits(v), base+kx
							if v > math.Float32frombits(best) {
								best = vb
								bi = idx
							}
						}
					}
					o := chOut + oy*out.W + ox
					dst[o] = math.Float32frombits(best)
					if train {
						m.argm[s*out.Size()+o] = int32(bi)
					}
				}
			}
		}
	}
	return res
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dout *tensor.Mat) *tensor.Mat {
	out := m.OutShape()
	dx := m.dx.get(dout.Rows, m.In.Size())
	tensor.Zero(dx.Data)
	for s := 0; s < dout.Rows; s++ {
		src := dout.Row(s)
		dst := dx.Row(s)
		for o, v := range src {
			dst[m.argm[s*out.Size()+o]] += v
		}
	}
	return dx
}

// GlobalAvgPool averages each channel over its spatial extent, producing C
// features per sample (ResNet's final pooling).
type GlobalAvgPool struct {
	In      Shape
	res, dx buf
}

// NewGlobalAvgPool builds the layer.
func NewGlobalAvgPool(in Shape) *GlobalAvgPool { return &GlobalAvgPool{In: in} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return "GlobalAvgPool" }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []Param { return nil }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	hw := g.In.H * g.In.W
	res := g.res.get(x.Rows, g.In.C)
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		for ch := 0; ch < g.In.C; ch++ {
			res.Set(s, ch, float32(tensor.Sum(in[ch*hw:(ch+1)*hw])/float64(hw)))
		}
	}
	return res
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dout *tensor.Mat) *tensor.Mat {
	hw := g.In.H * g.In.W
	dx := g.dx.get(dout.Rows, g.In.Size())
	inv := 1 / float32(hw)
	for s := 0; s < dout.Rows; s++ {
		dst := dx.Row(s)
		for ch := 0; ch < g.In.C; ch++ {
			v := dout.At(s, ch) * inv
			seg := dst[ch*hw : (ch+1)*hw]
			for i := range seg {
				seg[i] = v
			}
		}
	}
	return dx
}

// BatchNorm2D normalizes each channel over (batch, H, W) with learnable
// scale γ and shift β, keeping running statistics for evaluation.
type BatchNorm2D struct {
	In       Shape
	Eps      float32
	Momentum float32

	Gamma, Beta     []float32
	GGamma, GBeta   []float32
	RunMean, RunVar []float32

	// backward caches
	xhat    buf
	invStd  []float32
	rows    int
	res, dx buf
}

// NewBatchNorm2D builds a batch-norm layer over C channels.
func NewBatchNorm2D(in Shape) *BatchNorm2D {
	b := &BatchNorm2D{
		In: in, Eps: 1e-5, Momentum: 0.9,
		Gamma: make([]float32, in.C), Beta: make([]float32, in.C),
		GGamma: make([]float32, in.C), GBeta: make([]float32, in.C),
		RunMean: make([]float32, in.C), RunVar: make([]float32, in.C),
	}
	for i := range b.Gamma {
		b.Gamma[i] = 1
		b.RunVar[i] = 1
	}
	return b
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return fmt.Sprintf("BatchNorm2D(%d)", b.In.C) }

// Params implements Layer.
func (b *BatchNorm2D) Params() []Param {
	return []Param{
		{Name: b.Name() + ".gamma", W: b.Gamma, G: b.GGamma},
		{Name: b.Name() + ".beta", W: b.Beta, G: b.GBeta},
	}
}

// State implements Stateful: the running mean, then the running variance.
func (b *BatchNorm2D) State() [][]float32 { return [][]float32{b.RunMean, b.RunVar} }

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	hw := b.In.H * b.In.W
	res := b.res.get(x.Rows, x.Cols)
	if !train {
		for s := 0; s < x.Rows; s++ {
			in, out := x.Row(s), res.Row(s)
			for ch := 0; ch < b.In.C; ch++ {
				inv := 1 / float32(math.Sqrt(float64(b.RunVar[ch]+b.Eps)))
				g, be, mu := b.Gamma[ch], b.Beta[ch], b.RunMean[ch]
				for i := ch * hw; i < (ch+1)*hw; i++ {
					out[i] = g*(in[i]-mu)*inv + be
				}
			}
		}
		return res
	}
	n := float64(x.Rows * hw)
	b.rows = x.Rows
	xhat := b.xhat.get(x.Rows, x.Cols).Data
	if len(b.invStd) != b.In.C {
		b.invStd = make([]float32, b.In.C)
	}
	for ch := 0; ch < b.In.C; ch++ {
		var sum, sq float64
		for s := 0; s < x.Rows; s++ {
			in := x.Row(s)
			for i := ch * hw; i < (ch+1)*hw; i++ {
				v := float64(in[i])
				sum += v
				sq += v * v
			}
		}
		mean := sum / n
		variance := sq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1 / math.Sqrt(variance+float64(b.Eps)))
		b.invStd[ch] = inv
		b.RunMean[ch] = b.Momentum*b.RunMean[ch] + (1-b.Momentum)*float32(mean)
		b.RunVar[ch] = b.Momentum*b.RunVar[ch] + (1-b.Momentum)*float32(variance)
		g, be := b.Gamma[ch], b.Beta[ch]
		for s := 0; s < x.Rows; s++ {
			in, out := x.Row(s), res.Row(s)
			base := s * x.Cols
			for i := ch * hw; i < (ch+1)*hw; i++ {
				xh := (in[i] - float32(mean)) * inv
				xhat[base+i] = xh
				out[i] = g*xh + be
			}
		}
	}
	return res
}

// Backward implements Layer (standard batch-norm backward per channel).
func (b *BatchNorm2D) Backward(dout *tensor.Mat) *tensor.Mat {
	hw := b.In.H * b.In.W
	n := float32(b.rows * hw)
	dx := b.dx.get(dout.Rows, dout.Cols)
	xhat := b.xhat.m.Data
	for ch := 0; ch < b.In.C; ch++ {
		var sumDy, sumDyXhat float64
		for s := 0; s < dout.Rows; s++ {
			do := dout.Row(s)
			base := s * dout.Cols
			for i := ch * hw; i < (ch+1)*hw; i++ {
				dy := float64(do[i])
				sumDy += dy
				sumDyXhat += dy * float64(xhat[base+i])
			}
		}
		b.GBeta[ch] += float32(sumDy)
		b.GGamma[ch] += float32(sumDyXhat)
		g := b.Gamma[ch]
		inv := b.invStd[ch]
		for s := 0; s < dout.Rows; s++ {
			do, dxr := dout.Row(s), dx.Row(s)
			base := s * dout.Cols
			for i := ch * hw; i < (ch+1)*hw; i++ {
				xh := xhat[base+i]
				dxr[i] = g * inv / n * (n*do[i] - float32(sumDy) - xh*float32(sumDyXhat))
			}
		}
	}
	return dx
}
