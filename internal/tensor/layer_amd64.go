//go:build amd64 && !purego

package tensor

// The layer kernels (layer_amd64.s) need AVX2 (integer lanes, VPBROADCASTD,
// VINSERTI128) and FMA (the channel sums' exact products); a CPU without
// either runs the portable loops. Each gives the bits of its portable loop
// (layer.go): the channel sums keep every channel's running sums in one
// float64 lane, four channels to a register; the elementwise passes issue
// the scalar loop's operations, in its order, eight lanes at a time.

// layerVariants lists every variant of the layer kernels this binary can
// run on this CPU, narrowest first.
func layerVariants() []layerVariant {
	if cpuAVX2 && cpuFMA {
		return []layerVariant{layerPortable, {
			name: "avx2", channelSums: channelSumsAVX2,
			normalize: normalizeAVX2, normalizeGrad: normalizeGradAVX2,
			maxPool2: maxPool2AVX2, relu: reluAVX2, reluGrad: reluGradAVX2,
			maskCopy: maskCopyAVX, maskAdd: maskAddAVX, addBias: addBiasAVX,
			lstmGateGrad: lstmGateGradAVX2, rowMax: rowMaxAVX2, softmaxGrad: softmaxGradAVX2,
		}}
	}
	return []layerVariant{layerPortable}
}

// channelSumsKernel computes the sums of four channels whose planes start
// hw elements apart at a and b, over rows rows stride elements apart: sum[j]
// = Σ a and dot[j] = Σ a·b of channel j, in (row, element) order. Each
// block of four elements of the four planes is transposed so that one
// register holds one element of every channel, then converted to float64
// (exact) and added — the products by a fused multiply-add, which rounds
// once, as the exact product's add does. hw's last hw mod 4 elements are
// gathered one at a time.
//
//go:noescape
func channelSumsKernel(sum, dot *float64, a, b *float32, rows, hw, stride int)

// normalizeKernel and normalizeGradKernel run Normalize's and
// NormalizeGrad's expressions over rows runs of hw elements, stride apart,
// eight at a time with separate multiplies and adds; a run's last hw mod 8
// elements go through the same operations under a load/store mask.
//
//go:noescape
func normalizeKernel(y, xhat, x *float32, rows, hw, stride int, mean, inv, gamma, beta float32)

//go:noescape
func normalizeGradKernel(dx, dy, xhat *float32, rows, hw, stride int, k, n, sdy, sdyx float32)

// maxPool2Kernel pools groups·8 outputs of a 2×2 pool over an image of
// rows w elements wide, w a multiple of 4, from output 0. Each lane is one
// output: four quarters of two outputs (four elements of a top row and the
// four below them, each inside one output row) load, split into even and
// odd columns, and take the scalar loop's four strict compares (VCMPPS
// GT_OQ, false on NaN) against a best that starts at −Inf, blending the
// value and the window offset of each win. arg, when not nil, gets the
// index of each winner.
//
//go:noescape
func maxPool2Kernel(dst *float32, arg *int32, src *float32, groups, w int)

// reluKernel and reluGradKernel are ReLU and ReLUGrad over n elements, n a
// multiple of 8, on the bit patterns as the scalar loops compute them.
//
//go:noescape
func reluKernel(dst, src *float32, n int)

//go:noescape
func reluGradKernel(dst, dy, out *float32, n int)

// maskCopyKernel and maskAddKernel are MaskCopy and MaskAdd over n
// elements, n a multiple of 8, with a mask of period words, period a
// multiple of 8: eight elements AND eight mask words (VANDPS), then the
// store or the add, the mask offset wrapping to 0 at period.
//
//go:noescape
func maskCopyKernel(dst, src *float32, mask *uint32, period, n int)

//go:noescape
func maskAddKernel(dst, src *float32, mask *uint32, period, n int)

// addBiasKernel is AddBias: each run of hw eight elements at a time, its
// last hw mod 8 under a load/store mask.
//
//go:noescape
func addBiasKernel(dst, src *float32, rows, hw, stride int, b float32)

// lstmGateGradKernel is LSTMGateGrad over rows rows of h, h ≥ 1: each row
// eight elements at a time, each lane the scalar loop's multiplies, adds and
// subtracts, separate, in its order; a row's last h mod 8 elements go
// through the same operations under a load/store mask.
//
//go:noescape
func lstmGateGradKernel(dz, dc, gates, tanhC, cPrev, dh *float32, rows, h int)

// rowMaxKernel returns the VMAXPS maximum of a row of n ≥ 8 elements and
// whether any of them is NaN. Without a NaN and with a nonzero maximum,
// every element equal to it has its bits, so it is the scalar loop's
// result; a NaN or a ±0 maximum (where VMAXPS and the loop's strict
// compare disagree on which one stays) leaves the row to the loop.
//
//go:noescape
func rowMaxKernel(row *float32, n int) (m float32, nan bool)

// softmaxScaleKernel sets dst[c] = float32(exps[c]/sum)·scale for c < n,
// n a multiple of 8: a float64 vector division, rounded to float32 by
// VCVTPD2PS as the scalar conversion rounds, then a float32 multiply.
//
//go:noescape
func softmaxScaleKernel(dst *float32, exps *float64, n int, sum float64, scale float32)

// maskCopyAVX and maskAddAVX run the kernel over the whole groups of eight
// when the mask's period is a multiple of 8, and the portable loop over the
// rest, whose mask offset (full mod period, a multiple of 8 below the
// period) leaves room for its fewer than eight elements.
func maskCopyAVX(dst, src []float32, mask []uint32) {
	full := maskedFull(len(src), len(mask))
	if full > 0 {
		_ = dst[full-1] // the kernel does not check bounds
		maskCopyKernel(&dst[0], &src[0], &mask[0], len(mask), full)
	}
	maskCopyScalar(dst[full:], src[full:], mask[full%max(len(mask), 1):])
}

func maskAddAVX(dst, src []float32, mask []uint32) {
	full := maskedFull(len(src), len(mask))
	if full > 0 {
		_ = dst[full-1] // the kernel does not check bounds
		maskAddKernel(&dst[0], &src[0], &mask[0], len(mask), full)
	}
	maskAddScalar(dst[full:], src[full:], mask[full%max(len(mask), 1):])
}

// maskedFull is the number of leading elements the mask kernels take.
func maskedFull(n, period int) int {
	if period%8 != 0 {
		return 0
	}
	return n &^ 7
}

func addBiasAVX(dst, src []float32, rows, hw, stride int, b float32) {
	if rows > 0 && hw > 0 {
		addBiasKernel(&dst[0], &src[0], rows, hw, stride, b)
	}
}

// channelSumsAVX2 hands the kernel the channels four at a time and the
// portable loop the one to three left over: each channel's sums are its
// own, so the split changes no bit.
func channelSumsAVX2(sum, dot []float64, a, b []float32, rows, hw, stride int) {
	quads := 0
	if rows > 0 && hw > 0 {
		quads = len(sum) &^ 3
	}
	for c := 0; c < quads; c += 4 {
		channelSumsKernel(&sum[c], &dot[c], &a[c*hw], &b[c*hw], rows, hw, stride)
	}
	o := quads * hw
	channelSumsScalar(sum[quads:], dot[quads:], a[o:], b[o:], rows, hw, stride)
}

func normalizeAVX2(y, xhat, x []float32, rows, hw, stride int, mean, inv, gamma, beta float32) {
	if rows > 0 && hw > 0 {
		_, _, _ = y[(rows-1)*stride+hw-1], xhat[(rows-1)*stride+hw-1], x[(rows-1)*stride+hw-1] // the kernel does not check bounds
		normalizeKernel(&y[0], &xhat[0], &x[0], rows, hw, stride, mean, inv, gamma, beta)
	}
}

func normalizeGradAVX2(dx, dy, xhat []float32, rows, hw, stride int, k, n, sdy, sdyx float32) {
	if rows > 0 && hw > 0 {
		_, _, _ = dx[(rows-1)*stride+hw-1], dy[(rows-1)*stride+hw-1], xhat[(rows-1)*stride+hw-1] // the kernel does not check bounds
		normalizeGradKernel(&dx[0], &dy[0], &xhat[0], rows, hw, stride, k, n, sdy, sdyx)
	}
}

// maxPool2AVX2 runs the kernel over the whole groups of eight outputs of an
// image whose output rows hold an even number (w a multiple of 4), and the
// portable loop over the rest: each output is its own, so the split changes
// no bit.
func maxPool2AVX2(dst []float32, arg []int32, src []float32, w int) {
	done := 0
	if w%4 == 0 {
		done = len(dst) &^ 7
	}
	if done > 0 {
		var ap *int32
		if arg != nil {
			ap = &arg[0]
		}
		maxPool2Kernel(&dst[0], ap, &src[0], done/8, w)
	}
	maxPoolScalar(dst, arg, src, w, 2, done)
}

func reluAVX2(dst, src Vec) {
	full := len(src) &^ 7
	if full > 0 {
		reluKernel(&dst[0], &src[0], full)
	}
	reluScalar(dst[full:], src[full:])
}

func reluGradAVX2(dst, dy, out Vec) {
	full := len(dy) &^ 7
	if full > 0 {
		reluGradKernel(&dst[0], &dy[0], &out[0], full)
	}
	reluGradScalar(dst[full:], dy[full:], out[full:])
}

func lstmGateGradAVX2(dz, dc, gates, tanhC, cPrev, dh []float32, rows, h int) {
	if rows > 0 {
		lstmGateGradKernel(&dz[0], &dc[0], &gates[0], &tanhC[0], &cPrev[0], &dh[0], rows, h)
	}
}

func rowMaxAVX2(row []float32) float32 {
	if len(row) >= 8 {
		if m, nan := rowMaxKernel(&row[0], len(row)); !nan && m != 0 {
			return m
		}
	}
	return rowMaxScalar(row)
}

// softmaxGradAVX2 runs the kernel over the whole groups of eight columns
// and then rewrites the label's column with the scalar expression; the
// last len(dst) mod 8 columns run the portable loop.
func softmaxGradAVX2(dst []float32, exps []float64, sum float64, lbl int, scale float32) {
	full := len(exps) &^ 7
	if full > 0 {
		softmaxScaleKernel(&dst[0], &exps[0], full, sum, scale)
		if lbl < full {
			softmaxGradScalar(dst[:lbl+1], exps[:lbl+1], sum, lbl, scale, lbl)
		}
	}
	softmaxGradScalar(dst, exps, sum, lbl, scale, full)
}
