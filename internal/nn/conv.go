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
// one column per (sample, output pixel), so the forward product, the weight
// gradient and the column gradient are each ONE matrix multiply per pass
// whatever the spatial extent — late VGG stages have 2×2 outputs, and a
// per-sample multiply over rows of four floats cannot fill a vector. Every
// output element is still the same sum over the same terms in the same
// order. The weight gradient keeps the per-sample association: it is one
// segmented product (tensor.GemmAddSegmented) whose segments are the
// samples, each sample's sum over its pixels from +0 added to dW in sample
// order — the bits of one product per sample.
type Conv2D struct {
	In          Shape
	OutC        int
	KH, KW      int
	Stride, Pad int

	W, B   []float32 // W is (OutC, In.C·KH·KW) row-major
	GW, GB []float32

	blocks []convBlock // per kernel position, see kernelBlock
	tape   buf         // lowered input: (In.C·KH·KW) × (samples·oh·ow)
	cmaj   buf         // OutC × (samples·oh·ow): the forward product, then dout, channel-major
	planes buf         // In.C × (samples·h·w) between two margins: the input, then its gradient, channel-major (shifted lowering)
	dcols  buf         // gradient of the tape
	res    buf
	dx     buf
	sums   []float64 // one sample's per-channel Σdout, then Σdout² (unused)
	rec    record
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

// convBlock is what kernel position (ky, kx) reads of one channel plane: the
// output pixels [oy0, oy1) × [ox0, ox1) whose input pixel — Stride apart
// along both axes — lies inside the image; the others (its pads) read
// padding. The input pixel of (oy0, ox0) sits at in. In the shifted
// geometry, mask marks the block over one sample's oh·ow output pixels —
// all-ones words inside it, 0 at its pads — repeated to a whole number of
// 8-lane vectors (the 2×2 late stages have 4 pixels), and shift is the
// constant input-minus-output offset of the block's pixels.
type convBlock struct {
	oy0, oy1, ox0, ox1 int
	in                 int
	shift              int
	mask               []uint32
}

// empty reports a block with no pixel inside the image.
func (b *convBlock) empty() bool { return b.oy0 == b.oy1 || b.ox0 == b.ox1 }

// convRowMin is the length from which a copy runs as one call (memmove);
// shorter ones — the late stages' planes are a few pixels — are cheaper
// element by element than call by call.
const convRowMin = 8

// kernelBlock returns the block of kernel position (ky, kx). The geometry is
// fixed at construction, so the table — the masks included — is built once.
func (c *Conv2D) kernelBlock(ky, kx int) *convBlock {
	if c.blocks == nil {
		out := c.OutShape()
		// o·Stride + k − Pad ∈ [0, n) ⇔ o ∈ [lo, hi).
		span := func(k, n, outN int) (lo, hi int) {
			lo = max(0, (c.Pad-k+c.Stride-1)/c.Stride)
			if last := n - 1 + c.Pad - k; last >= 0 {
				hi = min(outN, last/c.Stride+1)
			}
			return lo, max(lo, hi)
		}
		ohw := out.H * out.W
		period := ohw
		for period%8 != 0 {
			period += ohw
		}
		var masks []uint32
		if c.shifted() {
			masks = make([]uint32, c.KH*c.KW*period)
		}
		c.blocks = make([]convBlock, c.KH*c.KW)
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				b := &c.blocks[ky*c.KW+kx]
				b.oy0, b.oy1 = span(ky, c.In.H, out.H)
				b.ox0, b.ox1 = span(kx, c.In.W, out.W)
				if b.empty() {
					*b = convBlock{} // no row to move
					continue
				}
				b.in = (b.oy0*c.Stride+ky-c.Pad)*c.In.W + b.ox0*c.Stride + kx - c.Pad
				if masks == nil {
					continue
				}
				b.shift = b.in - (b.oy0*out.W + b.ox0)
				b.mask = masks[(ky*c.KW+kx)*period:][:period]
				for d := range b.mask {
					oy, ox := d%ohw/out.W, d%out.W
					if oy >= b.oy0 && oy < b.oy1 && ox >= b.ox0 && ox < b.ox1 {
						b.mask[d] = ^uint32(0)
					}
				}
			}
		}
	}
	return &c.blocks[ky*c.KW+kx]
}

// shifted reports the common geometry — stride 1 and an output as large as
// the input (a k×k kernel with pad (k−1)/2) — in which a kernel position's
// block is the input shifted by a constant: output pixel d reads input pixel
// d + shift. Over the channel-major planes, where each channel's samples lie
// end to end, that holds across rows and samples alike, so one masked copy
// (im2col) or one masked add (col2im) of the whole batch moves a kernel
// position of a channel: the block's mask turns the pixels it moves that lie
// outside the block (its pads, in every sample) into +0.
func (c *Conv2D) shifted() bool {
	out := c.OutShape()
	return c.Stride == 1 && out.H == c.In.H && out.W == c.In.W
}

// planeMargin is the number of elements the shifted lowering keeps before
// and after the planes: a block's shift reaches at most Pad rows and Pad
// columns, so a kernel position's whole row of output pixels reads and
// writes inside the planes and their margins, and the pixels that land in
// a margin or a neighbouring channel are pads.
func (c *Conv2D) planeMargin() int { return c.Pad * (c.In.W + 1) }

// im2col lowers x into the tape, one column block of oh·ow per sample,
// writing every element: padding positions are stored as zeros, not left to
// a freshly allocated matrix. The tape is filled row by row — all samples of
// one (channel, ky, kx) before the next — so the stores walk memory
// forwards. In the shifted geometry each row is one tensor.MaskCopy of the
// channel's plane through the block's mask; other geometries (strided
// layers) move element by element, block row by block row.
func (c *Conv2D) im2col(x, tape *tensor.Mat) {
	out := c.OutShape()
	ohw, ihw := out.H*out.W, c.In.H*c.In.W
	if c.shifted() {
		n := x.Rows * ihw
		planes := c.shiftedPlanes(n)
		for s := 0; s < x.Rows; s++ {
			for ch := 0; ch < c.In.C; ch++ {
				move(planes[c.planeMargin()+ch*n+s*ihw:][:ihw], x.Row(s)[ch*ihw:(ch+1)*ihw])
			}
		}
		for ch := 0; ch < c.In.C; ch++ {
			base := c.planeMargin() + ch*n
			for k := range c.KH * c.KW {
				row := tape.Row(ch*c.KH*c.KW + k)
				b := c.kernelBlock(k/c.KW, k%c.KW)
				if b.empty() {
					clear(row)
					continue
				}
				tensor.MaskCopy(row, planes[base+b.shift:][:n], b.mask)
			}
		}
		return
	}
	for ch := 0; ch < c.In.C; ch++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				row := tape.Row((ch*c.KH+ky)*c.KW + kx)
				b := c.kernelBlock(ky, kx)
				if b.oy1-b.oy0 < out.H || b.ox1-b.ox0 < out.W {
					clear(row) // some pixel of every sample reads padding
				}
				n := b.ox1 - b.ox0
				for s := 0; s < x.Rows; s++ {
					dst, src := row[s*ohw:(s+1)*ohw], x.Row(s)[ch*ihw:(ch+1)*ihw]
					for oy, in := b.oy0, b.in; oy < b.oy1; oy, in = oy+1, in+c.Stride*c.In.W {
						d := dst[oy*out.W+b.ox0 : oy*out.W+b.ox1]
						for j, i := 0, in; j < n; j, i = j+1, i+c.Stride {
							d[j] = src[i]
						}
					}
				}
			}
		}
	}
}

// shiftedPlanes returns the channel-major planes of n elements per channel,
// with planeMargin elements before and after them.
func (c *Conv2D) shiftedPlanes(n int) []float32 {
	return c.planes.get(1, c.In.C*n+2*c.planeMargin()).Data
}

// col2im scatters the tape gradient back onto the input gradient, one column
// block of oh·ow per sample. Each input pixel receives its contributions in
// ascending (ky, kx) order, at most one per kernel position, into a sum
// that starts at +0 — the order the sums have always had.
//
// The shifted form accumulates into the channel-major planes and moves them
// to dx at the end. Its one tensor.MaskAdd per kernel position and channel
// also adds, through the block's mask, +0 for every pad of dcols, into
// pixels of the plane, of its neighbours or of the margins. Adding +0 leaves
// every value but −0 unchanged, and no input-gradient element is ever −0:
// it starts at +0, and in round-to-nearest a sum is −0 only when both
// addends are. So the extra terms change no bit.
func (c *Conv2D) col2im(dcols, dx *tensor.Mat) {
	out := c.OutShape()
	ohw, ihw := out.H*out.W, c.In.H*c.In.W
	if c.shifted() {
		n := dx.Rows * ihw
		planes := c.shiftedPlanes(n)
		tensor.Zero(planes)
		for ch := 0; ch < c.In.C; ch++ {
			base := c.planeMargin() + ch*n
			for k := range c.KH * c.KW {
				b := c.kernelBlock(k/c.KW, k%c.KW)
				if b.empty() {
					continue
				}
				tensor.MaskAdd(planes[base+b.shift:][:n], dcols.Row(ch*c.KH*c.KW+k), b.mask)
			}
		}
		for s := 0; s < dx.Rows; s++ {
			for ch := 0; ch < c.In.C; ch++ {
				move(dx.Row(s)[ch*ihw:(ch+1)*ihw], planes[c.planeMargin()+ch*n+s*ihw:][:ihw])
			}
		}
		return
	}
	tensor.Zero(dx.Data)
	for ch := 0; ch < c.In.C; ch++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				row := dcols.Row((ch*c.KH+ky)*c.KW + kx)
				b := c.kernelBlock(ky, kx)
				n := b.ox1 - b.ox0
				for s := 0; s < dx.Rows; s++ {
					src, dst := row[s*ohw:(s+1)*ohw], dx.Row(s)[ch*ihw:(ch+1)*ihw]
					for oy, in := b.oy0, b.in; oy < b.oy1; oy, in = oy+1, in+c.Stride*c.In.W {
						d := src[oy*out.W+b.ox0 : oy*out.W+b.ox1]
						for j, i := 0, in; j < n; j, i = j+1, i+c.Stride {
							dst[i] += d[j]
						}
					}
				}
			}
		}
	}
}

// move is copy(dst, src) as one memmove from convRowMin elements on and as
// a loop below, where the call would cost more than the copy.
func move(dst, src []float32) {
	if len(dst) >= convRowMin {
		copy(dst, src)
		return
	}
	src = src[:len(dst)]
	for j := range dst {
		dst[j] = src[j]
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	if x.Cols != c.In.Size() {
		panic(fmt.Sprintf("nn: %s got %d features, want %d", c.Name(), x.Cols, c.In.Size()))
	}
	c.rec.forward(train)
	out := c.OutShape()
	ohw, k := out.H*out.W, c.In.C*c.KH*c.KW
	n := x.Rows * ohw
	res := c.res.get(x.Rows, out.Size())
	tape := c.tape.get(k, n)
	c.im2col(x, tape)
	prod := c.cmaj.get(c.OutC, n)
	tensor.Gemm(prod.View(), tensor.ViewOf(c.OutC, k, c.W), tape.View())
	// Transpose the product into the sample-major output, adding the bias on
	// the way.
	for oc := 0; oc < c.OutC; oc++ {
		tensor.AddBias(res.Data[oc*ohw:], prod.Row(oc), x.Rows, ohw, out.Size(), c.B[oc])
	}
	return res
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Mat) *tensor.Mat { return c.backward(dout, true) }

// backwardParams implements paramsBackward.
func (c *Conv2D) backwardParams(dout *tensor.Mat) { c.backward(dout, false) }

func (c *Conv2D) backward(dout *tensor.Mat, needDx bool) *tensor.Mat {
	c.rec.check(c)
	out := c.OutShape()
	ohw, k := out.H*out.W, c.In.C*c.KH*c.KW
	n := dout.Rows * ohw
	tape := &c.tape.m
	if tape.Rows != k || tape.Cols != n {
		panic(fmt.Sprintf("nn: %s Backward on %d samples without a training Forward of that batch", c.Name(), dout.Rows))
	}
	// db += each channel's sum of dout, sample by sample (a float64 running
	// sum over the sample's oh·ow pixels, then one float32 add); and dout
	// transposed to channel-major, the layout of the tape's columns.
	doT := c.cmaj.get(c.OutC, n)
	c.sums = grow(c.sums, 2*c.OutC)
	sum, sq := c.sums[:c.OutC], c.sums[c.OutC:]
	for s := 0; s < dout.Rows; s++ {
		do := dout.Row(s)
		tensor.ChannelSums(sum, sq, do, do, 1, ohw)
		for oc, v := range sum {
			c.GB[oc] += float32(v)
			move(doT.Data[oc*n+s*ohw:][:ohw], do[oc*ohw:(oc+1)*ohw])
		}
	}
	// dW += do × colsᵀ, one segment per sample, in sample order.
	tensor.GemmAddSegmented(tensor.ViewOf(c.OutC, k, c.GW), doT.View(), tape.View().T(), ohw)
	if !needDx {
		return nil
	}
	// dcols = Wᵀ × do over the whole batch, then scatter.
	dcols := c.dcols.get(k, n)
	tensor.Gemm(dcols.View(), tensor.ViewOf(c.OutC, k, c.W).T(), doT.View())
	dx := c.dx.get(dout.Rows, c.In.Size())
	c.col2im(dcols, dx)
	return dx
}

// MaxPool2D is a k×k max pool with stride k (non-overlapping).
type MaxPool2D struct {
	In      Shape
	K       int
	argm    []int32
	res, dx buf
	rec     record
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

// Forward implements Layer. Each sample's C planes of H rows pool as one
// image of C·H rows (tensor.MaxPool): the first maximal element of a window
// wins, NaN never does, and a window with nothing above −Inf gives −Inf and
// routes its gradient to its first element.
func (m *MaxPool2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	m.rec.forward(train)
	out := m.OutShape()
	res := m.res.get(x.Rows, out.Size())
	if train {
		m.argm = grow(m.argm, x.Rows*out.Size())
	}
	for s := 0; s < x.Rows; s++ {
		var arg []int32
		if train {
			arg = m.argm[s*out.Size() : (s+1)*out.Size()]
		}
		tensor.MaxPool(res.Row(s), arg, x.Row(s), m.In.W, m.K)
	}
	return res
}

// Backward implements Layer. The windows tile the input, so each is written
// once: +0 everywhere, then 0 + v at its arg-max — the bits of clearing the
// input gradient and adding each output's gradient into it (a −0 gradient
// lands as +0).
func (m *MaxPool2D) Backward(dout *tensor.Mat) *tensor.Mat {
	m.rec.check(m)
	out := m.OutShape()
	dx := m.dx.get(dout.Rows, m.In.Size())
	w, k := m.In.W, m.K
	for s := 0; s < dout.Rows; s++ {
		src, dst := dout.Row(s), dx.Row(s)
		arg := m.argm[s*out.Size() : (s+1)*out.Size()]
		for o := 0; o < len(src); o += out.W {
			top := o / out.W * k * w // the windows' first input row
			for y := top; y < top+k*w; y += w {
				clear(dst[y : y+w])
			}
			for i, v := range src[o : o+out.W] {
				dst[arg[o+i]] = 0 + v
			}
		}
	}
	return dx
}

// GlobalAvgPool averages each channel over its spatial extent, producing C
// features per sample (ResNet's final pooling).
type GlobalAvgPool struct {
	In      Shape
	res, dx buf
	rec     record
}

// NewGlobalAvgPool builds the layer.
func NewGlobalAvgPool(in Shape) *GlobalAvgPool { return &GlobalAvgPool{In: in} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return "GlobalAvgPool" }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []Param { return nil }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	g.rec.forward(train)
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
	g.rec.check(g)
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

	// backward caches: x̂, the per-channel 1/σ and float32 mean, and the
	// per-channel sums of the pass in flight (Σ, then Σ of products)
	xhat         buf
	invStd, mean []float32
	sums         []float64
	rows         int
	res, dx      buf
	rec          record
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

// Forward implements Layer. Training statistics are per channel: Σx and
// Σx² as float64 running sums in (sample, pixel) order (tensor.ChannelSums),
// then the elementwise pass in float32 (tensor.Normalize).
func (b *BatchNorm2D) Forward(x *tensor.Mat, train bool) *tensor.Mat {
	b.rec.forward(train)
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
	c := b.In.C
	b.invStd = grow(b.invStd, c)
	b.mean = grow(b.mean, c)
	b.sums = grow(b.sums, 2*c)
	sum, sq := b.sums[:c], b.sums[c:]
	tensor.ChannelSums(sum, sq, x.Data, x.Data, x.Rows, hw)
	for ch := 0; ch < c; ch++ {
		mean := sum[ch] / n
		variance := sq[ch]/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		b.invStd[ch] = float32(1 / math.Sqrt(variance+float64(b.Eps)))
		b.mean[ch] = float32(mean)
		b.RunMean[ch] = b.Momentum*b.RunMean[ch] + (1-b.Momentum)*float32(mean)
		b.RunVar[ch] = b.Momentum*b.RunVar[ch] + (1-b.Momentum)*float32(variance)
	}
	tensor.Normalize(res.Data, xhat, x.Data, x.Rows, hw, b.mean, b.invStd, b.Gamma, b.Beta)
	return res
}

// Backward implements Layer (standard batch-norm backward per channel):
// Σdy and Σdy·x̂ as float64 running sums in (sample, pixel) order, then
// dx = γ·inv/n·(n·dy − Σdy − x̂·Σdy·x̂) in float32 (tensor.NormalizeGrad).
func (b *BatchNorm2D) Backward(dout *tensor.Mat) *tensor.Mat {
	b.rec.check(b)
	hw := b.In.H * b.In.W
	c := b.In.C
	dx := b.dx.get(dout.Rows, dout.Cols)
	xhat := b.xhat.m.Data
	sumDy, sumDyXhat := b.sums[:c], b.sums[c:]
	tensor.ChannelSums(sumDy, sumDyXhat, dout.Data, xhat, b.rows, hw)
	for ch := 0; ch < c; ch++ {
		b.GBeta[ch] += float32(sumDy[ch])
		b.GGamma[ch] += float32(sumDyXhat[ch])
	}
	tensor.NormalizeGrad(dx.Data, dout.Data, xhat, b.rows, hw, b.Gamma, b.invStd, sumDy, sumDyXhat)
	return dx
}
