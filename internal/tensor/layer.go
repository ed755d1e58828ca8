package tensor

import "math"

// Layer kernels: the per-element loops of batch normalization, the k×k max
// pool and the rectifier, on the layouts nn gives them — a batch of rows,
// each row C channel planes of hw elements (hw = H·W), plane c of row s at
// [s·C·hw + c·hw, s·C·hw + (c+1)·hw) — and the LSTM's gate gradient and the
// softmax loss over rows. Every operation is specified by the scalar loop
// of its portable kernel below ("Layer kernels" in the package comment);
// the vector kernels (layer_amd64.s) give its bits.

// layerVariant is one implementation of the layer kernels. Every variant
// computes the same bits; they differ in how many elements an instruction
// handles.
type layerVariant struct {
	name string
	// channelSums is ChannelSums over the first len(sum) channels of a
	// layout whose row holds stride elements.
	channelSums func(sum, dot []float64, a, b []float32, rows, hw, stride int)
	// normalize and normalizeGrad are Normalize and NormalizeGrad over one
	// channel: rows runs of hw elements, stride apart, with that channel's
	// constants.
	normalize     func(y, xhat, x []float32, rows, hw, stride int, mean, inv, gamma, beta float32)
	normalizeGrad func(dx, dy, xhat []float32, rows, hw, stride int, k, n, sdy, sdyx float32)
	// maxPool2 is MaxPool with k = 2.
	maxPool2 func(dst []float32, arg []int32, src []float32, w int)
	// relu and reluGrad are ReLU and ReLUGrad.
	relu     func(dst, src Vec)
	reluGrad func(dst, dy, out Vec)
	// maskCopy, maskAdd and addBias are MaskCopy, MaskAdd and AddBias.
	maskCopy func(dst, src []float32, mask []uint32)
	maskAdd  func(dst, src []float32, mask []uint32)
	addBias  func(dst, src []float32, rows, hw, stride int, b float32)
	// lstmGateGrad is LSTMGateGrad over rows rows of h.
	lstmGateGrad func(dz, dc, gates, tanhC, cPrev, dh []float32, rows, h int)
	// rowMax and softmaxGrad are SoftmaxRows' maximum of a row and its
	// gradient row, given the row's exponentials and their sum.
	rowMax      func(row []float32) float32
	softmaxGrad func(dst []float32, exps []float64, sum float64, lbl int, scale float32)
}

var (
	layerPortable = layerVariant{
		name: "portable", channelSums: channelSumsScalar,
		normalize: normalizeScalar, normalizeGrad: normalizeGradScalar,
		maxPool2: func(dst []float32, arg []int32, src []float32, w int) { maxPoolScalar(dst, arg, src, w, 2, 0) },
		relu:     reluScalar, reluGrad: reluGradScalar,
		maskCopy: maskCopyScalar, maskAdd: maskAddScalar, addBias: addBiasScalar,
		lstmGateGrad: lstmGateGradScalar, rowMax: rowMaxScalar,
		softmaxGrad: func(dst []float32, exps []float64, sum float64, lbl int, scale float32) {
			softmaxGradScalar(dst, exps, sum, lbl, scale, 0)
		},
	}
	// layerActive is the variant in use: the widest this binary can run on
	// this CPU, the last of layerVariants (see the architecture files). Only
	// tests assign it, to run every one of them.
	layerActive = layerVariants()[len(layerVariants())-1]
)

// checkPlanes panics unless data holds rows rows of channels planes of hw
// elements.
func checkPlanes(data []float32, rows, channels, hw int) {
	if rows < 0 || hw < 0 || len(data) != rows*channels*hw {
		panic("tensor: layer operand does not hold rows × channels × hw elements")
	}
}

// ChannelSums sets, for each channel c < len(sum), sum[c] = Σ a and
// dot[c] = Σ a·b over the channel's elements of a and b (rows × len(sum)
// planes of hw, the same layout), each a float64 running sum from +0 in
// (row, element) order of the exactly converted float32 values and of
// their exact float64 products. With b = a it is the batch-norm forward's
// Σx and Σx², with a = dy and b = x̂ its backward's Σdy and Σdy·x̂.
func ChannelSums(sum, dot []float64, a, b []float32, rows, hw int) {
	c := len(sum)
	checkLen(len(dot), c)
	checkPlanes(a, rows, c, hw)
	checkPlanes(b, rows, c, hw)
	layerActive.channelSums(sum, dot, a, b, rows, hw, c*hw)
}

func channelSumsScalar(sum, dot []float64, a, b []float32, rows, hw, stride int) {
	for ch := range sum {
		var s, d float64
		for r := 0; r < rows; r++ {
			base := r*stride + ch*hw
			for i := base; i < base+hw; i++ {
				s += float64(a[i])
				d += float64(a[i]) * float64(b[i])
			}
		}
		sum[ch], dot[ch] = s, d
	}
}

// Normalize is batch normalization's forward elementwise pass: for each
// element x of channel c (rows × len(mean) planes of hw), in float32 with
// every operation rounded,
//
//	xhat = (x − mean[c])·inv[c],  y = gamma[c]·xhat + beta[c].
func Normalize(y, xhat, x []float32, rows, hw int, mean, inv, gamma, beta []float32) {
	c := len(mean)
	checkLen(len(inv), c)
	checkLen(len(gamma), c)
	checkLen(len(beta), c)
	checkPlanes(x, rows, c, hw)
	checkPlanes(y, rows, c, hw)
	checkPlanes(xhat, rows, c, hw)
	for ch := range mean {
		o := ch * hw
		layerActive.normalize(y[o:], xhat[o:], x[o:], rows, hw, c*hw, mean[ch], inv[ch], gamma[ch], beta[ch])
	}
}

// The float32 conversions in normalizeScalar and normalizeGradScalar round
// each product on its own, as the specification says. Without them Go may
// fuse a product into the add or subtract that follows it (arm64 does),
// which is a different arithmetic; on amd64 they change no instruction.
func normalizeScalar(y, xhat, x []float32, rows, hw, stride int, mean, inv, gamma, beta float32) {
	for r := 0; r < rows; r++ {
		for i := r * stride; i < r*stride+hw; i++ {
			xh := (x[i] - mean) * inv
			xhat[i] = xh
			y[i] = float32(gamma*xh) + beta
		}
	}
}

// NormalizeGrad is batch normalization's backward elementwise pass over
// n = rows·hw elements per channel, given the channel sums sum[c] = Σdy and
// dot[c] = Σdy·x̂ (ChannelSums): for each element of channel c, in float32
// with every operation rounded,
//
//	dx = k·((n·dy − float32(sum[c])) − x̂·float32(dot[c])),  k = gamma[c]·inv[c]/n,
//
// k computed once per channel, left to right.
func NormalizeGrad(dx, dy, xhat []float32, rows, hw int, gamma, inv []float32, sum, dot []float64) {
	c := len(gamma)
	checkLen(len(inv), c)
	checkLen(len(sum), c)
	checkLen(len(dot), c)
	checkPlanes(dx, rows, c, hw)
	checkPlanes(dy, rows, c, hw)
	checkPlanes(xhat, rows, c, hw)
	n := float32(rows * hw)
	for ch := range gamma {
		o := ch * hw
		k := gamma[ch] * inv[ch] / n
		layerActive.normalizeGrad(dx[o:], dy[o:], xhat[o:], rows, hw, c*hw, k, n, float32(sum[ch]), float32(dot[ch]))
	}
}

func normalizeGradScalar(dx, dy, xhat []float32, rows, hw, stride int, k, n, sdy, sdyx float32) {
	for r := 0; r < rows; r++ {
		for i := r * stride; i < r*stride+hw; i++ {
			dx[i] = k * (float32(n*dy[i]) - sdy - float32(xhat[i]*sdyx))
		}
	}
}

// MaxPool sets dst to the k×k max pool with stride k of src, an image of
// len(src)/w rows of w elements (k divides both; nn's C planes of H rows
// are C·H such rows, and no window crosses a plane). Output element o of
// output row r takes the window's elements in row-major order against a
// running best that starts at −Inf, replacing it on a strict x > best: the
// first maximal element wins a tie, NaN never wins, and a window with
// nothing above −Inf (all −Inf, all NaN) gives −Inf at its first element.
// When arg is not nil, arg[o] receives the index in src of the element
// that won (of the window's first one when none did).
func MaxPool(dst []float32, arg []int32, src []float32, w, k int) {
	if k < 1 || w%k != 0 || len(src)%(w*k) != 0 {
		panic("tensor: MaxPool window does not tile the image")
	}
	checkLen(len(dst), len(src)/(k*k))
	if arg != nil {
		checkLen(len(arg), len(dst))
	}
	if k == 2 {
		layerActive.maxPool2(dst, arg, src, w)
		return
	}
	maxPoolScalar(dst, arg, src, w, k, 0)
}

// maxPoolScalar is MaxPool from output element from on. The running best
// is carried as its bit pattern: with both updates on integers the
// compiler emits conditional moves, where a float assignment would branch —
// and mispredict.
func maxPoolScalar(dst []float32, arg []int32, src []float32, w, k, from int) {
	ow := w / k
	negInf := math.Float32bits(float32(math.Inf(-1)))
	for o := from; o < len(dst); {
		r, ox := o/ow, o%ow
		for ; ox < ow; ox, o = ox+1, o+1 {
			best, bi := negInf, r*k*w+ox*k
			for ky := 0; ky < k; ky++ {
				base := (r*k+ky)*w + ox*k
				for kx, v := range src[base : base+k] {
					vb, idx := math.Float32bits(v), base+kx
					if v > math.Float32frombits(best) {
						best = vb
						bi = idx
					}
				}
			}
			dst[o] = math.Float32frombits(best)
			if arg != nil {
				arg[o] = int32(bi)
			}
		}
	}
}

// ReLU sets dst[i] = src[i] where src[i] > 0 and +0 elsewhere (−0 and NaN
// included), computed on the bit patterns: x > 0 holds exactly when the
// pattern lies in [1, +Inf's], i.e. when pattern−1 is below +Inf's pattern
// as an unsigned number; the borrow of that comparison, smeared over the
// word, is the keep mask.
func ReLU(dst, src Vec) {
	checkLen(len(dst), len(src))
	layerActive.relu(dst, src)
}

func reluScalar(dst, src Vec) {
	const posInf = 0x7f800000
	for i, v := range src {
		b := math.Float32bits(v)
		keep := uint32((uint64(b-1) - posInf) >> 32)
		dst[i] = math.Float32frombits(b & keep)
	}
}

// ReLUGrad sets dst[i] = dy[i] where out[i], ReLU's output, is nonzero —
// exactly where its input was positive — and +0 elsewhere, on the bit
// patterns (dy's NaN payloads pass unchanged).
func ReLUGrad(dst, dy, out Vec) {
	checkLen(len(dst), len(dy))
	checkLen(len(out), len(dy))
	layerActive.reluGrad(dst, dy, out)
}

func reluGradScalar(dst, dy, out Vec) {
	for i, v := range dy {
		keep := uint32(-int64(math.Float32bits(out[i])) >> 63)
		dst[i] = math.Float32frombits(math.Float32bits(v) & keep)
	}
}

// MaskCopy sets dst[i] = src[i] AND mask[i mod len(mask)] on the bit
// patterns: src[i] itself, NaN payload and sign included, where its mask
// word is all ones, and +0 where it is 0. nn's lowering copies a kernel
// position's shifted input through the mask of its pads, which stores the
// +0 a separate clear of the pads would.
func MaskCopy(dst, src []float32, mask []uint32) {
	checkMask(dst, src, mask)
	layerActive.maskCopy(dst, src, mask)
}

func maskCopyScalar(dst, src []float32, mask []uint32) {
	p := 0
	for i, v := range src {
		dst[i] = math.Float32frombits(math.Float32bits(v) & mask[p])
		if p++; p == len(mask) {
			p = 0
		}
	}
}

// MaskAdd sets dst[i] += src[i] AND mask[i mod len(mask)] (MaskCopy's
// value), one float32 add per element: where the mask word is 0 it adds +0,
// which leaves every dst value but −0 unchanged.
func MaskAdd(dst, src []float32, mask []uint32) {
	checkMask(dst, src, mask)
	layerActive.maskAdd(dst, src, mask)
}

func maskAddScalar(dst, src []float32, mask []uint32) {
	p := 0
	for i, v := range src {
		dst[i] += math.Float32frombits(math.Float32bits(v) & mask[p])
		if p++; p == len(mask) {
			p = 0
		}
	}
}

func checkMask(dst, src []float32, mask []uint32) {
	checkLen(len(dst), len(src))
	if len(src) > 0 && len(mask) == 0 {
		panic("tensor: empty mask")
	}
}

// AddBias sets dst[r·stride + i] = src[r·hw + i] + b for r < rows and
// i < hw, each one float32 add: the contiguous src laid out as rows runs of
// hw, stride apart — Conv2D's bias add as it transposes one output
// channel's product into the sample-major rows.
func AddBias(dst, src []float32, rows, hw, stride int, b float32) {
	checkLen(len(src), rows*hw)
	if rows > 0 && hw > 0 && (stride < hw || len(dst) < (rows-1)*stride+hw) {
		panic("tensor: AddBias runs exceed the destination")
	}
	layerActive.addBias(dst, src, rows, hw, stride, b)
}

func addBiasScalar(dst, src []float32, rows, hw, stride int, b float32) {
	for r := 0; r < rows; r++ {
		d := dst[r*stride : r*stride+hw]
		for i, v := range src[r*hw : (r+1)*hw] {
			d[i] = v + b
		}
	}
}

// LSTMCell is one time step of an LSTM layer's forward pass over the step's
// rows: gates holds each row's gate pre-activations [i f g o] before the
// bias, 4h elements a row, and bias the 4h biases; cPrev (the previous cell
// state), c (the new one), tanhC and out (the new hidden state) hold h a
// row. For each row and j < h, with σ and tanh Sigmoid's and Tanh's
// expressions,
//
//	i = σ(z[j] + b[j]),       f = σ(z[h+j] + b[h+j]),
//	g = tanh(z[2h+j] + b[2h+j]), o = σ(z[3h+j] + b[3h+j]),
//	c[j]     = float32(f·cPrev[j]) + float32(i·g)
//	tanhC[j] = tanh(c[j])
//	out[j]   = o·tanhC[j]
//
// each bias add, product and sum one float32 operation; i, f, g and o
// overwrite their pre-activations. c may be cPrev; no other operands may
// overlap. Sigmoid and Tanh give their bits on every build, so LSTMCell
// does too.
func LSTMCell(gates, c, tanhC, out, cPrev, bias []float32, h int) {
	if h < 1 || len(cPrev)%h != 0 {
		panic("tensor: LSTMCell rows are not h wide")
	}
	rows := len(cPrev) / h
	checkLen(len(c), rows*h)
	checkLen(len(tanhC), rows*h)
	checkLen(len(out), rows*h)
	checkLen(len(gates), 4*rows*h)
	checkLen(len(bias), 4*h)
	for r := 0; r < rows; r++ {
		z := gates[4*r*h : 4*(r+1)*h]
		Add(z, bias)
		Sigmoid(z[:2*h], z[:2*h])
		Tanh(z[2*h:3*h], z[2*h:3*h])
		Sigmoid(z[3*h:], z[3*h:])
		i, f, g := z[:h], z[h:2*h], z[2*h:3*h]
		cr, cp := c[r*h:(r+1)*h], cPrev[r*h:(r+1)*h]
		for j := range cr {
			// The conversions round each product on its own; without them
			// an arm64 compiler fuses one of them into the sum.
			cr[j] = float32(f[j]*cp[j]) + float32(i[j]*g[j])
		}
	}
	Tanh(tanhC, c)
	for r := 0; r < rows; r++ {
		o, t, hr := gates[4*r*h+3*h:4*(r+1)*h], tanhC[r*h:(r+1)*h], out[r*h:(r+1)*h]
		for j := range hr {
			hr[j] = o[j] * t[j]
		}
	}
}

// LSTMGateGrad is one time step of an LSTM layer's backward pass over the
// step's rows: gates holds each row's post-activation gates [i f g o] and
// dz its gate pre-activation gradients, 4h elements a row, in the same
// sections; tanhC (tanh of the new cell state), cPrev (the previous cell
// state), dh (the gradient of the row's output) and dc (the cell-state
// gradient carried from the next step) hold h a row. For each row and
// j < h, with i, f, g, o the gates and t = tanhC[j], in float32 with every
// operation rounded, in this order,
//
//	c  = dc[j] + (dh[j]·o)·(1 − t·t)
//	dz[3h+j] = ((dh[j]·t)·o)·(1 − o)
//	dz[j]    = ((c·g)·i)·(1 − i)
//	dz[h+j]  = ((c·cPrev[j])·f)·(1 − f)
//	dz[2h+j] = (c·i)·(1 − g·g)
//	dc[j]    = c·f
//
// dc is overwritten with the gradient carried to the step before.
func LSTMGateGrad(dz, dc, gates, tanhC, cPrev, dh []float32, h int) {
	if h < 1 || len(dh)%h != 0 {
		panic("tensor: LSTMGateGrad rows are not h wide")
	}
	rows := len(dh) / h
	checkLen(len(dc), rows*h)
	checkLen(len(tanhC), rows*h)
	checkLen(len(cPrev), rows*h)
	checkLen(len(gates), 4*rows*h)
	checkLen(len(dz), 4*rows*h)
	layerActive.lstmGateGrad(dz, dc, gates, tanhC, cPrev, dh, rows, h)
}

// The float32 conversions round each product on its own, as the
// specification says; without them an arm64 compiler fuses the products
// into the adds and subtracts that follow them.
func lstmGateGradScalar(dz, dc, gates, tanhC, cPrev, dh []float32, rows, h int) {
	for r := 0; r < rows; r++ {
		z, d := gates[4*r*h:4*(r+1)*h], dz[4*r*h:4*(r+1)*h]
		tr, cp := tanhC[r*h:(r+1)*h], cPrev[r*h:(r+1)*h]
		dhr, dcr := dh[r*h:(r+1)*h], dc[r*h:(r+1)*h]
		for j, t := range tr {
			ig, fg, gg, og := z[j], z[h+j], z[2*h+j], z[3*h+j]
			c := dcr[j] + float32(float32(dhr[j]*og)*(1-float32(t*t)))
			d[3*h+j] = dhr[j] * t * og * (1 - og)
			d[j] = c * gg * ig * (1 - ig)
			d[h+j] = c * cp[j] * fg * (1 - fg)
			d[2*h+j] = c * ig * (1 - float32(gg*gg))
			dcr[j] = c * fg
		}
	}
}

// SoftmaxRows is the softmax cross-entropy of len(labels) rows of cols
// logits and its gradient. For each row, with lbl its label:
//
//	m: the row's maximum as the loop m = row[0], then m = v for each
//	   v > m in column order finds it (a NaN at column 0 stays; NaN
//	   elsewhere never wins; of −0 and +0 the first one stays);
//	exps: ExpShift(exps, row, m);
//	sum: the float64 sum of exps from +0 in ascending column order;
//	loss term: −(float64(row[lbl] − m) − math.Log(sum));
//	d's row: float32(exps[c]/sum), minus 1 at c = lbl, times scale, each
//	   a float32 operation.
//
// It returns the float64 sum of the loss terms in row order. d may be
// logits: a row is read in full before it is written. exps holds
// SoftmaxBlock·cols elements, the exponentials of a block of rows; its
// contents are left undefined. A label outside [0, cols) panics.
func SoftmaxRows(d, logits []float32, cols int, labels []int, exps []float64, scale float32) (loss float64) {
	checkLen(len(logits), len(labels)*cols)
	checkLen(len(d), len(logits))
	checkLen(len(exps), SoftmaxBlock*cols)
	for _, lbl := range labels {
		if lbl < 0 || lbl >= cols {
			panic("tensor: SoftmaxRows label out of range")
		}
	}
	var ms [SoftmaxBlock]float32
	var sums [SoftmaxBlock]float64
	for lo := 0; lo < len(labels); lo += SoftmaxBlock {
		n := min(SoftmaxBlock, len(labels)-lo)
		for r := 0; r < n; r++ {
			row := logits[(lo+r)*cols : (lo+r+1)*cols]
			ms[r] = layerActive.rowMax(row)
			ExpShift(exps[r*cols:(r+1)*cols], row, ms[r])
		}
		expSums(sums[:n], exps, cols)
		for r, lbl := range labels[lo : lo+n] {
			s := (lo + r) * cols
			loss += -(float64(logits[s+lbl]-ms[r]) - math.Log(sums[r]))
			layerActive.softmaxGrad(d[s:s+cols], exps[r*cols:(r+1)*cols], sums[r], lbl, scale)
		}
	}
	return loss
}

// SoftmaxBlock is the number of rows SoftmaxRows takes at a time: their
// sums run as separate chains in one loop, so the latency of one add hides
// behind the others.
const SoftmaxBlock = 4

// expSums sets sums[r] to the sum of exps' row r of cols, each from +0 in
// ascending column order.
func expSums(sums, exps []float64, cols int) {
	if len(sums) == SoftmaxBlock {
		e0, e1, e2, e3 := exps[:cols], exps[cols:2*cols], exps[2*cols:3*cols], exps[3*cols:4*cols]
		var s0, s1, s2, s3 float64
		for c, e := range e0 {
			s0 += e
			s1 += e1[c]
			s2 += e2[c]
			s3 += e3[c]
		}
		sums[0], sums[1], sums[2], sums[3] = s0, s1, s2, s3
		return
	}
	for r := range sums {
		var s float64
		for _, e := range exps[r*cols : (r+1)*cols] {
			s += e
		}
		sums[r] = s
	}
}

// rowMaxScalar is SoftmaxRows' maximum loop.
func rowMaxScalar(row []float32) float32 {
	m := row[0]
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	return m
}

// softmaxGradScalar sets dst[c] to SoftmaxRows' gradient for from ≤ c <
// len(exps).
func softmaxGradScalar(dst []float32, exps []float64, sum float64, lbl int, scale float32, from int) {
	for c := from; c < len(exps); c++ {
		p := float32(exps[c] / sum)
		if c == lbl {
			p -= 1
		}
		dst[c] = p * scale
	}
}
