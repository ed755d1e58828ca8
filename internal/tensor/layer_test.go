package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The loops the layer kernels replaced survive here as oracles, written as
// nn wrote them: the per-channel sums in (sample, pixel) order, the
// normalization with its constants per element, the pool by channel, row
// and column. Every variant compiled into the test binary must reproduce
// them — float32 bits, arg-max indices and, for the sums, float64 bits.
// Batch-norm results are compared with NaN payloads left out, as Gemm's
// are: with a NaN in both operands of a commutative operation, which one
// survives is the compiler's choice of operand order.

func eachLayerVariant(t *testing.T, f func(name string)) {
	t.Helper()
	defer func(v layerVariant) { layerActive = v }(layerActive)
	for _, v := range layerVariants() {
		layerActive = v
		f(v.name)
	}
}

// bnShapes are (channels, hw) of every batch-norm layer of vgg16 and
// resnet20 at both scales, then hw ∈ {1, 3, 4, 9, 17} with channel counts
// that leave one to three channels after the last group of four.
var bnShapes = func() [][2]int {
	s := [][2]int{
		{8, 256}, {16, 64}, {24, 16}, {32, 4}, // reduced vgg16
		{8, 64}, {12, 16}, {16, 4}, // reduced resnet20
		{64, 1024}, {128, 256}, {256, 64}, {512, 16}, {512, 4}, // vgg16
		{16, 1024}, {32, 256}, {64, 64}, // resnet20
	}
	for _, hw := range []int{1, 3, 4, 9, 17} {
		for _, c := range []int{1, 2, 3, 5, 6, 7, 9} {
			s = append(s, [2]int{c, hw})
		}
	}
	return s
}()

// Special float32 values: quiet, payload-carrying and signalling NaNs of
// both signs, infinities, signed zeros, subnormals.
var layerSpecials = []float32{
	float32(math.NaN()),
	math.Float32frombits(0x7fc01234), // quiet NaN with a payload
	math.Float32frombits(0xffc00001),
	math.Float32frombits(0x7f800001), // signalling
	math.Float32frombits(0xffa00005),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001), // smallest subnormals
	math.Float32frombits(0x007fffff), 1e-40, -3e-39,
}

// layerValue draws one element of a class: 0 ordinary values, 1 ordinary
// values salted with zeros and subnormals, 2 values salted with any
// special, 3 subnormals only, 4 magnitudes near float32's top.
func layerValue(rng *RNG, class int) float32 {
	switch class {
	case 1:
		if rng.Intn(3) == 0 {
			return layerSpecials[7+rng.Intn(7)]
		}
	case 2:
		if rng.Intn(4) == 0 {
			return layerSpecials[rng.Intn(len(layerSpecials))]
		}
	case 3:
		return math.Float32frombits(uint32(1+rng.Intn(0x7fffff)) | uint32(rng.Intn(2))<<31)
	case 4:
		return (rng.Float32()*2 - 1) * 3.3e38
	}
	return (rng.Float32() - 0.5) * 4
}

// planes draws rows × c planes of hw, channel ch of class ch%classes.
func planes(rng *RNG, rows, c, hw, classes int) []float32 {
	v := make([]float32, rows*c*hw)
	for r := 0; r < rows; r++ {
		for ch := 0; ch < c; ch++ {
			for i := 0; i < hw; i++ {
				v[(r*c+ch)*hw+i] = layerValue(rng, ch%classes)
			}
		}
	}
	return v
}

func sameBits64(x, y float64) bool {
	if x != x && y != y {
		return true
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// channelSumsOracle is the batch-norm loop's pair of running sums.
func channelSumsOracle(a, b []float32, rows, c, hw int) (sum, dot []float64) {
	sum, dot = make([]float64, c), make([]float64, c)
	for ch := 0; ch < c; ch++ {
		var s, d float64
		for r := 0; r < rows; r++ {
			row := r * c * hw
			for i := ch * hw; i < (ch+1)*hw; i++ {
				v := float64(a[row+i])
				s += v
				d += v * float64(b[row+i])
			}
		}
		sum[ch], dot[ch] = s, d
	}
	return sum, dot
}

// Mutation-checked: a kernel whose transpose swaps two channel lanes fails
// it on every shape with four channels or more.
func TestChannelSumsMatchesPortable(t *testing.T) {
	rng := NewRNG(61)
	for _, s := range bnShapes {
		c, hw := s[0], s[1]
		for _, rows := range []int{1, 3, 16} {
			if c*hw*rows > 1<<17 {
				rows = 2
			}
			x := planes(rng, rows, c, hw, 5)
			dy := planes(rng, rows, c, hw, 3)
			for _, pair := range []struct {
				name string
				a, b []float32
			}{{"x,x", x, x}, {"dy,x", dy, x}} {
				wantS, wantD := channelSumsOracle(pair.a, pair.b, rows, c, hw)
				eachLayerVariant(t, func(name string) {
					sum, dot := make([]float64, c), make([]float64, c)
					ChannelSums(sum, dot, pair.a, pair.b, rows, hw)
					for ch := range sum {
						if !sameBits64(sum[ch], wantS[ch]) || !sameBits64(dot[ch], wantD[ch]) {
							t.Fatalf("%s c=%d hw=%d rows=%d %s: channel %d sums (%v, %v), want (%v, %v)",
								name, c, hw, rows, pair.name, ch, sum[ch], dot[ch], wantS[ch], wantD[ch])
						}
					}
				})
			}
		}
	}
}

// bnConstants draws per-channel constants the way a batch-norm layer
// holds them: a float32 mean, an inverse deviation, gamma and beta.
func bnConstants(rng *RNG, c int) (mean, inv, gamma, beta []float32) {
	mean, inv, gamma, beta = make([]float32, c), make([]float32, c), make([]float32, c), make([]float32, c)
	for ch := 0; ch < c; ch++ {
		mean[ch] = rng.Float32() - 0.5
		inv[ch] = float32(1 / math.Sqrt(rng.Float64()*3+1e-5))
		gamma[ch] = 1 + (rng.Float32()-0.5)/4
		beta[ch] = (rng.Float32() - 0.5) / 4
	}
	return mean, inv, gamma, beta
}

func sameLayerBits(t *testing.T, what string, got, want []float32, nanPayload bool) {
	t.Helper()
	for i := range want {
		ok := math.Float32bits(got[i]) == math.Float32bits(want[i])
		if !nanPayload && got[i] != got[i] && want[i] != want[i] {
			ok = true
		}
		if !ok {
			t.Fatalf("%s: element %d = %#08x (%v), want %#08x (%v)", what, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

func TestNormalizeMatchesPortable(t *testing.T) {
	rng := NewRNG(62)
	for _, s := range bnShapes {
		c, hw := s[0], s[1]
		for _, rows := range []int{1, 5, 16} {
			if c*hw*rows > 1<<17 {
				rows = 2
			}
			x := planes(rng, rows, c, hw, 5)
			mean, inv, gamma, beta := bnConstants(rng, c)
			wantY, wantXh := make([]float32, len(x)), make([]float32, len(x))
			for r := 0; r < rows; r++ {
				for ch := 0; ch < c; ch++ {
					for i := (r*c + ch) * hw; i < (r*c+ch+1)*hw; i++ {
						xh := (x[i] - mean[ch]) * inv[ch]
						wantXh[i] = xh
						wantY[i] = gamma[ch]*xh + beta[ch]
					}
				}
			}
			eachLayerVariant(t, func(name string) {
				y, xh := make([]float32, len(x)), make([]float32, len(x))
				Normalize(y, xh, x, rows, hw, mean, inv, gamma, beta)
				what := fmt.Sprintf("%s c=%d hw=%d rows=%d", name, c, hw, rows)
				sameLayerBits(t, what+" x̂", xh, wantXh, false)
				sameLayerBits(t, what+" y", y, wantY, false)
			})
		}
	}
}

// Mutation-checked: computing the hoisted k as gamma·(inv/n) fails it.
func TestNormalizeGradMatchesPortable(t *testing.T) {
	rng := NewRNG(63)
	for _, s := range bnShapes {
		c, hw := s[0], s[1]
		for _, rows := range []int{1, 5, 16} {
			if c*hw*rows > 1<<17 {
				rows = 2
			}
			dy := planes(rng, rows, c, hw, 5)
			xhat := planes(rng, rows, c, hw, 2)
			_, inv, gamma, _ := bnConstants(rng, c)
			sum, dot := channelSumsOracle(dy, xhat, rows, c, hw)
			n := float32(rows * hw)
			want := make([]float32, len(dy))
			for ch := 0; ch < c; ch++ {
				g := gamma[ch]
				for r := 0; r < rows; r++ {
					for i := (r*c + ch) * hw; i < (r*c+ch+1)*hw; i++ {
						want[i] = g * inv[ch] / n * (n*dy[i] - float32(sum[ch]) - xhat[i]*float32(dot[ch]))
					}
				}
			}
			eachLayerVariant(t, func(name string) {
				dx := make([]float32, len(dy))
				NormalizeGrad(dx, dy, xhat, rows, hw, gamma, inv, sum, dot)
				sameLayerBits(t, fmt.Sprintf("%s c=%d hw=%d rows=%d dx", name, c, hw, rows), dx, want, false)
			})
		}
	}
}

// poolOracle is nn's pool loop over one sample of c planes of h×w.
func poolOracle(in []float32, c, h, w, k int) ([]float32, []int32) {
	oh, ow := h/k, w/k
	dst, arg := make([]float32, c*oh*ow), make([]int32, c*oh*ow)
	for ch := 0; ch < c; ch++ {
		chIn, chOut := ch*h*w, ch*oh*ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bi := chIn + oy*k*w + ox*k
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						idx := chIn + (oy*k+ky)*w + ox*k + kx
						if in[idx] > best {
							best, bi = in[idx], idx
						}
					}
				}
				dst[chOut+oy*ow+ox], arg[chOut+oy*ow+ox] = best, int32(bi)
			}
		}
	}
	return dst, arg
}

// poolImage draws c planes of h×w from a palette rich in ties (±0, ±1, 2)
// and specials, then makes some windows all NaN, all −Inf, or NaN and −Inf
// mixed.
func poolImage(rng *RNG, c, h, w, k int) []float32 {
	tie := []float32{-1, 0, float32(math.Copysign(0, -1)), 1, 2}
	in := make([]float32, c*h*w)
	for i := range in {
		switch rng.Intn(4) {
		case 0:
			in[i] = layerSpecials[rng.Intn(len(layerSpecials))]
		case 1:
			in[i] = rng.Float32() - 0.5
		default:
			in[i] = tie[rng.Intn(len(tie))]
		}
	}
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < h/k; oy++ {
			for ox := 0; ox < w/k; ox++ {
				kind := rng.Intn(6)
				if kind > 2 {
					continue
				}
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						v := layerSpecials[rng.Intn(5)] // a NaN
						if kind == 1 || kind == 2 && rng.Intn(2) == 0 {
							v = float32(math.Inf(-1))
						}
						in[ch*h*w+(oy*k+ky)*w+ox*k+kx] = v
					}
				}
			}
		}
	}
	return in
}

// Mutation-checked: the kernel with GE_OQ in place of GT_OQ fails it (a
// tie goes to the later element), and so does an unordered predicate
// (NLE_UQ: a NaN wins).
func TestMaxPoolMatchesPortable(t *testing.T) {
	rng := NewRNG(64)
	type shape struct{ c, h, w, k int }
	shapes := []shape{
		{8, 16, 16, 2}, {16, 8, 8, 2}, {24, 4, 4, 2}, {32, 2, 2, 2}, // reduced vgg16
		{64, 32, 32, 2}, {128, 16, 16, 2}, {256, 8, 8, 2}, {512, 4, 4, 2}, {512, 2, 2, 2}, // vgg16
		{1, 2, 8, 2}, {3, 2, 8, 2}, {1, 6, 8, 2}, {5, 2, 24, 2}, {2, 4, 40, 2}, // outputs past the last group of eight
		{2, 10, 12, 2}, {3, 6, 20, 2}, // output rows of an odd number of quarters
		{3, 6, 6, 2}, {1, 2, 2, 2}, {7, 2, 14, 2}, // widths the kernel declines
		{4, 6, 6, 3}, {2, 4, 8, 4}, {3, 5, 5, 1}, // other k
	}
	for _, s := range shapes {
		for rep := 0; rep < 3; rep++ {
			in := poolImage(rng, s.c, s.h, s.w, s.k)
			want, wantArg := poolOracle(in, s.c, s.h, s.w, s.k)
			eachLayerVariant(t, func(name string) {
				what := fmt.Sprintf("%s %d×%d×%d k=%d", name, s.c, s.h, s.w, s.k)
				dst, arg := make([]float32, len(want)), make([]int32, len(want))
				MaxPool(dst, arg, in, s.w, s.k)
				sameLayerBits(t, what, dst, want, true)
				for o := range arg {
					if arg[o] != wantArg[o] {
						t.Fatalf("%s: arg-max of output %d = %d, want %d (window value %v)", what, o, arg[o], wantArg[o], want[o])
					}
				}
				clear(dst)
				MaxPool(dst, nil, in, s.w, s.k)
				sameLayerBits(t, what+" without arg", dst, want, true)
			})
		}
	}
}

// reluInput draws n values, a third of them special.
func reluInput(rng *RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = layerValue(rng, 2)
		if rng.Intn(3) == 0 {
			v[i] = layerSpecials[rng.Intn(len(layerSpecials))]
		}
	}
	return v
}

func TestReLUMatchesPortable(t *testing.T) {
	rng := NewRNG(65)
	lens := []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 100}
	for _, s := range bnShapes[:7] {
		lens = append(lens, 16*s[0]*s[1])
	}
	for _, n := range lens {
		x, dy := reluInput(rng, n), reluInput(rng, n)
		want, wantDx := make([]float32, n), make([]float32, n)
		for i, v := range x {
			if v > 0 {
				want[i] = v
			}
		}
		for i, o := range want {
			if math.Float32bits(o) != 0 {
				wantDx[i] = dy[i]
			}
		}
		eachLayerVariant(t, func(name string) {
			out, dx := make([]float32, n), make([]float32, n)
			ReLU(out, x)
			sameLayerBits(t, fmt.Sprintf("%s n=%d forward", name, n), out, want, true)
			ReLUGrad(dx, dy, out)
			sameLayerBits(t, fmt.Sprintf("%s n=%d backward", name, n), dx, wantDx, true)
		})
	}
}

// padMask draws a mask of period words in runs of all-ones and zero words,
// as a convolution's pad mask has, salted with arbitrary words (the
// operation is an AND of bit patterns, whatever the mask holds).
func padMask(rng *RNG, period int) []uint32 {
	m := make([]uint32, period)
	for i := range m {
		switch rng.Intn(8) {
		case 0:
			m[i] = uint32(rng.Uint64())
		case 1, 2, 3:
		default:
			m[i] = ^uint32(0)
		}
	}
	return m
}

// maskInput draws values whose zeros of both signs, NaN payloads and
// subnormals fall at all-ones positions and at pads alike.
func maskInput(rng *RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = layerValue(rng, 2)
		if rng.Intn(4) == 0 {
			v[i] = float32(math.Copysign(0, -1))
		}
	}
	return v
}

// maskCases are (period, length) pairs: the periods of every shifted
// convolution's pad masks (lcm(oh·ow, 8): 8 for 2×2 images, 16, 64, 256),
// periods that are not a multiple of 8 (the portable loop), and lengths
// from 0 to 40 and past several periods, so a vector crosses the wrap.
var maskCases = func() [][2]int {
	var s [][2]int
	for _, p := range []int{8, 16, 24, 64, 256, 1, 4, 5, 9} {
		for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 23, 24, 31, 33, 40, 100, 8*p + 5, 16 * 256} {
			s = append(s, [2]int{p, n})
		}
	}
	return s
}()

// MaskCopy is an AND of bit patterns, so its result is compared with every
// NaN payload; MaskAdd's add is compared as batch norm's are.
func TestMaskCopyMatchesPortable(t *testing.T) {
	rng := NewRNG(67)
	for _, c := range maskCases {
		period, n := c[0], c[1]
		mask, src := padMask(rng, period), maskInput(rng, n)
		want := make([]float32, n)
		for i, v := range src {
			want[i] = math.Float32frombits(math.Float32bits(v) & mask[i%period])
		}
		eachLayerVariant(t, func(name string) {
			dst := maskInput(rng, n+1)
			guard := dst[n]
			MaskCopy(dst[:n], src, mask)
			sameLayerBits(t, fmt.Sprintf("%s period %d n=%d", name, period, n), dst[:n], want, true)
			if math.Float32bits(dst[n]) != math.Float32bits(guard) {
				t.Fatalf("%s period %d n=%d: wrote past the end", name, period, n)
			}
		})
	}
}

func TestMaskAddMatchesPortable(t *testing.T) {
	rng := NewRNG(68)
	for _, c := range maskCases {
		period, n := c[0], c[1]
		mask, src, dst0 := padMask(rng, period), maskInput(rng, n), maskInput(rng, n+1)
		want := make([]float32, n)
		for i, v := range src {
			want[i] = dst0[i] + math.Float32frombits(math.Float32bits(v)&mask[i%period])
		}
		eachLayerVariant(t, func(name string) {
			dst := append([]float32(nil), dst0...)
			MaskAdd(dst[:n], src, mask)
			sameLayerBits(t, fmt.Sprintf("%s period %d n=%d", name, period, n), dst[:n], want, false)
			if math.Float32bits(dst[n]) != math.Float32bits(dst0[n]) {
				t.Fatalf("%s period %d n=%d: wrote past the end", name, period, n)
			}
		})
	}
}

// AddBias writes each run and nothing between the runs: the conv output
// layouts (every vgg16 and resnet20 oh·ow, OutC channels to a row) and run
// lengths 1 to 17 at gaps of 0, 1 and 9.
func TestAddBiasMatchesPortable(t *testing.T) {
	rng := NewRNG(69)
	type shape struct{ rows, hw, stride int }
	var shapes []shape
	for _, s := range bnShapes[:15] {
		shapes = append(shapes, shape{16, s[1], s[0] * s[1]}, shape{3, s[1], s[0] * s[1]})
	}
	for hw := 1; hw <= 17; hw++ {
		for _, gap := range []int{0, 1, 9} {
			shapes = append(shapes, shape{5, hw, hw + gap})
		}
	}
	for _, sh := range shapes {
		src := maskInput(rng, sh.rows*sh.hw)
		b := layerValue(rng, 2)
		dst0 := maskInput(rng, (sh.rows-1)*sh.stride+sh.hw+3)
		want := append([]float32(nil), dst0...)
		for r := 0; r < sh.rows; r++ {
			for i := 0; i < sh.hw; i++ {
				want[r*sh.stride+i] = src[r*sh.hw+i] + b
			}
		}
		eachLayerVariant(t, func(name string) {
			dst := append([]float32(nil), dst0...)
			AddBias(dst, src, sh.rows, sh.hw, sh.stride, b)
			sameLayerBits(t, fmt.Sprintf("%s %+v b=%v", name, sh, b), dst, want, false)
		})
	}
}

func TestLayerKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := NewRNG(66)
	const rows, c, hw = 16, 24, 16
	x := planes(rng, rows, c, hw, 1)
	y, xh, dx := make([]float32, len(x)), make([]float32, len(x)), make([]float32, len(x))
	sum, dot := make([]float64, c), make([]float64, c)
	mean, inv, gamma, beta := bnConstants(rng, c)
	pooled, arg := make([]float32, len(x)/4), make([]int32, len(x)/4)
	mask := padMask(rng, 8)
	const h, cols = 32, 64
	gates, dz, dc := make([]float32, 4*rows*h), make([]float32, 4*rows*h), make([]float32, rows*h)
	logits, exps, labels := make([]float32, rows*cols), make([]float64, SoftmaxBlock*cols), make([]int, rows)
	eachLayerVariant(t, func(name string) {
		allocs := testing.AllocsPerRun(10, func() {
			ChannelSums(sum, dot, x, x, rows, hw)
			Normalize(y, xh, x, rows, hw, mean, inv, gamma, beta)
			NormalizeGrad(dx, y, xh, rows, hw, gamma, inv, sum, dot)
			MaxPool(pooled, arg, x, 16, 2)
			ReLU(y, x)
			ReLUGrad(dx, x, y)
			MaskCopy(y, x, mask)
			MaskAdd(dx, x, mask)
			AddBias(y, x[:rows*hw], rows, hw, c*hw, 1)
			LSTMCell(gates, dc, y[:rows*h], dx[:rows*h], xh[:rows*h], x[:4*h], h)
			LSTMGateGrad(dz, dc, gates, y[:rows*h], xh[:rows*h], x[:rows*h], h)
			SoftmaxRows(logits, logits, cols, labels, exps, 1.0/rows)
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations per run", name, allocs)
		}
	})
}

// cellExtremes are pre-activations and cell states where the activations
// leave the kernels' clamps or float32's normal range: σ below 2⁻¹²⁶ under
// −87.3, tanh at ±1 beyond ±9.1, and the clamps at −40, 88 and ±20.
var cellExtremes = []float32{-87.5, -88, -88.8, -90, -103.9, -1e4, -3e38, 87, 88.8, 1e4, 3e38,
	20, -20, 20.5, -20.5, 30, -45, 9.5, -9.5, 40, -40, 41}

// cellValue draws a gate pre-activation or a cell state: ordinary values
// over the range the activations bend in, cellExtremes, layerValue's class
// (zeros, subnormals, every special) and, where midpoint is set, the
// arguments of transMidpoints for the activation, σ or tanh, the value
// goes to.
func cellValue(rng *RNG, class int, midpoint, tanh bool) float32 {
	switch rng.Intn(8) {
	case 0:
		return cellExtremes[rng.Intn(len(cellExtremes))]
	case 1:
		if midpoint {
			for {
				if m := transMidpoints[rng.Intn(len(transMidpoints))]; m.tanh == tanh {
					return math.Float32frombits(m.bits)
				}
			}
		}
	case 2:
		return layerValue(rng, class)
	}
	return (rng.Float32() - 0.5) * 24
}

// lstmCellOracle is nn's forward cell loop as it was written there: the
// bias added to the whole gates row, σ over the i and f sections, tanh over
// g, σ over o, then per element the cell update with each product rounded,
// tanh(c) and h = o·tanh(c).
func lstmCellOracle(gates, c, tanhC, out, cPrev, bias []float32, B, H int) {
	for b := 0; b < B; b++ {
		z := gates[b*4*H : (b+1)*4*H]
		for j := range z {
			z[j] += bias[j]
		}
		for j := range z {
			if j/H == 2 {
				z[j] = tanhRef(z[j])
			} else {
				z[j] = sigmoidRef(z[j])
			}
		}
		for j := 0; j < H; j++ {
			k := b*H + j
			cj := float32(z[H+j]*cPrev[k]) + float32(z[j]*z[2*H+j])
			c[k] = cj
			tanhC[k] = tanhRef(cj)
			out[k] = z[3*H+j] * tanhC[k]
		}
	}
}

// On every variant of the transcendentals, every H from 1 to 35 (whole
// blocks of the Sigmoid and Tanh kernels and every tail) at every B from 1
// to 17; the pre-activations, the biases and the previous cell state
// ordinary, salted with zeros and subnormals, or salted with every special,
// and all three with cellExtremes. A third of the columns have a +0 bias,
// and their pre-activations are salted with transMidpoints, so the
// kernels' midpoint fallback runs inside the cell. The last shape runs
// with c in place of cPrev. Mutation-checked: a
// skipped bias, a reordered cell update and a dropped Newton step each fail
// it (a dropped midpoint test fails TestTransMidpoints).
func TestLSTMCellMatchesPortable(t *testing.T) {
	rng := NewRNG(71)
	for H := 1; H <= 35; H++ {
		for B := 1; B <= 17; B++ {
			class := (H + B) % 3
			bias := make([]float32, 4*H)
			for j := range bias {
				if j%3 != 0 {
					bias[j] = cellValue(rng, class, false, false)
				}
			}
			gates0 := make([]float32, 4*B*H)
			for i := range gates0 {
				j := i % (4 * H)
				gates0[i] = cellValue(rng, class, j%3 == 0, j/H == 2)
			}
			cPrev := make([]float32, B*H)
			for i := range cPrev {
				cPrev[i] = cellValue(rng, class, false, false)
			}
			inPlace := H == 35 && B == 17
			run := func(cell func(gates, c, tanhC, out, cPrev []float32)) (gates, c, tanhC, out []float32) {
				gates, c = append([]float32(nil), gates0...), append([]float32(nil), cPrev...)
				tanhC, out = make([]float32, B*H), make([]float32, B*H)
				if inPlace {
					cell(gates, c, tanhC, out, c)
				} else {
					cell(gates, c, tanhC, out, cPrev)
				}
				return gates, c, tanhC, out
			}
			wantZ, wantC, wantT, wantH := run(func(gates, c, tanhC, out, cPrev []float32) {
				lstmCellOracle(gates, c, tanhC, out, cPrev, bias, B, H)
			})
			forTransVariants(func(v transVariant) {
				z, c, tc, h := run(func(gates, c, tanhC, out, cPrev []float32) {
					LSTMCell(gates, c, tanhC, out, cPrev, bias, H)
				})
				what := fmt.Sprintf("%s H=%d B=%d in place %v", v.name, H, B, inPlace)
				sameLayerBits(t, what+" gates", z, wantZ, false)
				sameLayerBits(t, what+" c", c, wantC, false)
				sameLayerBits(t, what+" tanhC", tc, wantT, false)
				sameLayerBits(t, what+" h", h, wantH, false)
			})
		}
	}
}

// gateValue draws a post-activation gate: uniform in [0, 1), salted with
// gates at exactly 0 and 1 and with every special value.
func gateValue(rng *RNG) float32 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return layerSpecials[rng.Intn(len(layerSpecials))]
	}
	return rng.Float32()
}

// lstmGateOracle is nn's BPTT gate loop as it was written there, row by row
// and gate by gate, its products rounded as float32 operations.
func lstmGateOracle(dz, dc, gates, tanhC, cPrev, dh []float32, B, H int) {
	for b := 0; b < B; b++ {
		zr, dzr := gates[b*4*H:(b+1)*4*H], dz[b*4*H:(b+1)*4*H]
		tr, cp := tanhC[b*H:(b+1)*H], cPrev[b*H:(b+1)*H]
		dhr, dcr := dh[b*H:(b+1)*H], dc[b*H:(b+1)*H]
		for j := 0; j < H; j++ {
			ig, fg, gg, og := zr[j], zr[H+j], zr[2*H+j], zr[3*H+j]
			dcTot := dcr[j] + float32(float32(dhr[j]*og)*(1-float32(tr[j]*tr[j])))
			dzr[3*H+j] = dhr[j] * tr[j] * og * (1 - og)
			dzr[j] = dcTot * gg * ig * (1 - ig)
			dzr[H+j] = dcTot * cp[j] * fg * (1 - fg)
			dzr[2*H+j] = dcTot * ig * (1 - float32(gg*gg))
			dcr[j] = dcTot * fg
		}
	}
}

// Every H from 1 to 35 (whole groups of eight and every tail) at every B
// from 1 to 17, the state values ordinary, salted with zeros and
// subnormals, or salted with every special. Mutation-checked: a reordered
// product and a dropped (1 − o) each fail it.
func TestLSTMGateGradMatchesPortable(t *testing.T) {
	rng := NewRNG(70)
	for H := 1; H <= 35; H++ {
		for B := 1; B <= 17; B++ {
			class := (H + B) % 3
			gates := make([]float32, 4*B*H)
			for i := range gates {
				gates[i] = gateValue(rng)
			}
			state := func() []float32 {
				v := make([]float32, B*H)
				for i := range v {
					v[i] = layerValue(rng, class)
				}
				return v
			}
			tanhC, cPrev, dh, dc0 := state(), state(), state(), state()
			dz0 := maskInput(rng, 4*B*H)
			wantZ, wantC := append([]float32(nil), dz0...), append([]float32(nil), dc0...)
			lstmGateOracle(wantZ, wantC, gates, tanhC, cPrev, dh, B, H)
			eachLayerVariant(t, func(name string) {
				dz, dc := append([]float32(nil), dz0...), append([]float32(nil), dc0...)
				LSTMGateGrad(dz, dc, gates, tanhC, cPrev, dh, H)
				what := fmt.Sprintf("%s H=%d B=%d", name, H, B)
				sameLayerBits(t, what+" dz", dz, wantZ, false)
				sameLayerBits(t, what+" dc", dc, wantC, false)
			})
		}
	}
}

// softmaxOracle is nn's softmax loss loop as it was written there: the
// maximum, math.Exp of each shifted logit, the ascending float64 sum, and
// each probability rounded, less 1 at the label, times scale.
func softmaxOracle(d, logits []float32, cols int, labels []int, scale float32) (loss float64, maxes []float32) {
	exps := make([]float64, cols)
	for s, lbl := range labels {
		row, dst := logits[s*cols:(s+1)*cols], d[s*cols:(s+1)*cols]
		m := row[0]
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		maxes = append(maxes, m)
		var sum float64
		for c, v := range row {
			exps[c] = math.Exp(float64(v - m))
			sum += exps[c]
		}
		loss += -(float64(row[lbl]-m) - math.Log(sum))
		for c, e := range exps {
			p := float32(e / sum)
			if c == lbl {
				p -= 1
			}
			dst[c] = p * scale
		}
	}
	return loss, maxes
}

// softmaxCases returns rows of cols logits with their labels: ordinary
// rows, a NaN at column 0 and at another column, all-equal rows, rows whose
// maximum is +0 or −0 with the other zero before or after it, rows with −Inf
// entries, all −Inf, +Inf, and magnitudes near float32's top. The label
// sits at the first column, the last and one between.
func softmaxCases(rng *RNG, cols int) (logits []float32, labels []int) {
	nan := math.Float32frombits(0x7fc01234)
	negZero, negInf := float32(math.Copysign(0, -1)), float32(math.Inf(-1))
	for kind := 0; kind < 12; kind++ {
		row := make([]float32, cols)
		for c := range row {
			row[c] = (rng.Float32() - 0.5) * 8
		}
		at := rng.Intn(cols)
		switch kind {
		case 1:
			row[0] = nan
		case 2:
			row[at] = nan
		case 3:
			for c := range row {
				row[c] = 0.75
			}
		case 4, 5, 6, 7: // a zero maximum, the other zero 1 or 8 columns on
			for c := range row {
				row[c] = -rng.Float32() - 0.5
			}
			zeros := [2]float32{0, negZero}
			if kind%2 == 1 {
				zeros[0], zeros[1] = zeros[1], zeros[0]
			}
			row[at], row[(at+1+7*(kind/6))%cols] = zeros[0], zeros[1]
		case 8:
			for c := range row {
				if rng.Intn(3) == 0 {
					row[c] = negInf
				}
			}
		case 9:
			for c := range row {
				row[c] = negInf
			}
		case 10:
			row[at] = float32(math.Inf(1))
		case 11:
			for c := range row {
				row[c] = layerValue(rng, 4)
			}
		}
		logits = append(logits, row...)
		labels = append(labels, []int{0, cols - 1, at}[kind%3])
	}
	return logits, labels
}

// Widths 1 to 35 (vgg16's head is 10 wide) and the lstm's 64; one run of
// each width writes the gradient over the logits. Each row's maximum is
// also compared on its own: the one of −0 and +0 the loop keeps changes no
// loss or gradient bit. Mutation-checked: a wrong label column and a
// vector maximum that keeps the last of equal maxima each fail it.
func TestSoftmaxRowsMatchesPortable(t *testing.T) {
	rng := NewRNG(71)
	widths := []int{64}
	for w := 1; w <= 35; w++ {
		widths = append(widths, w)
	}
	for _, cols := range widths {
		logits, labels := softmaxCases(rng, cols)
		rows := len(labels)
		scale := 1 / float32(rows)
		want := make([]float32, len(logits))
		wantLoss, maxes := softmaxOracle(want, logits, cols, labels, scale)
		eachLayerVariant(t, func(name string) {
			what := fmt.Sprintf("%s cols=%d", name, cols)
			for s, m := range maxes {
				if got := layerActive.rowMax(logits[s*cols : (s+1)*cols]); math.Float32bits(got) != math.Float32bits(m) {
					t.Fatalf("%s row %d: maximum %#08x (%v), want %#08x (%v)", what, s,
						math.Float32bits(got), got, math.Float32bits(m), m)
				}
			}
			exps := make([]float64, SoftmaxBlock*cols)
			d := maskInput(rng, len(logits))
			loss := SoftmaxRows(d, logits, cols, labels, exps, scale)
			if !sameBits64(loss, wantLoss) {
				t.Fatalf("%s: loss %v, want %v", what, loss, wantLoss)
			}
			sameLayerBits(t, what+" d", d, want, false)
			inPlace := append([]float32(nil), logits...)
			loss = SoftmaxRows(inPlace, inPlace, cols, labels, exps, scale)
			if !sameBits64(loss, wantLoss) {
				t.Fatalf("%s in place: loss %v, want %v", what, loss, wantLoss)
			}
			sameLayerBits(t, what+" in place", inPlace, want, false)
		})
	}
}
