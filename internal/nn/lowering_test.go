package nn

import (
	"fmt"
	"math"
	"testing"

	"a2sgd/internal/tensor"
)

// The shifted lowering moves a kernel position of a channel with one masked
// copy (im2col) or one masked add (col2im). Before the masks it ran a plain
// copy or add and then zeroed the block's pads in every sample; that form
// survives here as the oracle, and the masked lowering must give its tape
// and its input gradient bit for bit.

// clearPadsRef zeroes, in every sample's oh·ow block of a tape (or
// tape-gradient) row, the output pixels outside the block.
func clearPadsRef(b *convBlock, row []float32, ow, ohw int) {
	for c := range ow {
		if c < b.ox0 || c >= b.ox1 {
			for o := c; o < len(row); o += ow {
				row[o] = 0
			}
		}
	}
	if rows := ohw - (b.oy1-b.oy0)*ow; rows > 0 {
		clear(row[:b.oy0*ow])
		for o := b.oy1 * ow; o < len(row); o += ohw {
			clear(row[o:min(o+rows, len(row))])
		}
	}
}

// blockRange is the span of a row the unmasked copy moved: the block's first
// pixel in the first sample to its last in the last.
func blockRange(b *convBlock, ow, ohw, n int) (lo, hi int) {
	return b.oy0*ow + b.ox0, n - ohw + (b.oy1-1)*ow + b.ox1
}

func im2colRef(c *Conv2D, x *tensor.Mat) []float32 {
	out := c.OutShape()
	ohw, ihw := out.H*out.W, c.In.H*c.In.W
	n := x.Rows * ihw
	planes := make([]float32, c.In.C*n)
	for s := 0; s < x.Rows; s++ {
		for ch := 0; ch < c.In.C; ch++ {
			copy(planes[ch*n+s*ihw:][:ihw], x.Row(s)[ch*ihw:(ch+1)*ihw])
		}
	}
	tape := make([]float32, c.In.C*c.KH*c.KW*n)
	for ch := 0; ch < c.In.C; ch++ {
		src := planes[ch*n : (ch+1)*n]
		for k := range c.KH * c.KW {
			row := tape[(ch*c.KH*c.KW+k)*n:][:n]
			b := c.kernelBlock(k/c.KW, k%c.KW)
			if b.empty() {
				continue
			}
			lo, hi := blockRange(b, out.W, ohw, n)
			copy(row[lo:hi], src[b.in:b.in+hi-lo])
			clearPadsRef(b, row, out.W, ohw)
		}
	}
	return tape
}

func col2imRef(c *Conv2D, dcols *tensor.Mat, rows int) []float32 {
	out := c.OutShape()
	ohw, ihw := out.H*out.W, c.In.H*c.In.W
	n := rows * ihw
	planes := make([]float32, c.In.C*n)
	for ch := 0; ch < c.In.C; ch++ {
		dst := planes[ch*n : (ch+1)*n]
		for k := range c.KH * c.KW {
			b := c.kernelBlock(k/c.KW, k%c.KW)
			if b.empty() {
				continue
			}
			row := append([]float32(nil), dcols.Row(ch*c.KH*c.KW+k)...)
			clearPadsRef(b, row, out.W, ohw)
			lo, hi := blockRange(b, out.W, ohw, n)
			for i, v := range row[lo:hi] {
				dst[b.in+i] += v
			}
		}
	}
	dx := make([]float32, rows*c.In.Size())
	for s := 0; s < rows; s++ {
		for ch := 0; ch < c.In.C; ch++ {
			copy(dx[s*c.In.Size()+ch*ihw:][:ihw], planes[ch*n+s*ihw:][:ihw])
		}
	}
	return dx
}

// loweringInput draws values with zeros of both signs, NaN payloads,
// infinities and subnormals among ordinary ones, so the pads' +0 and the
// copies' exact bits both show.
func loweringInput(rng *tensor.RNG, rows, cols int) *tensor.Mat {
	specials := []uint32{0x80000000, 0, 0x7fc01234, 0xffa00005, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff}
	m := tensor.NewMat(rows, cols)
	for i := range m.Data {
		if rng.Intn(5) == 0 {
			m.Data[i] = math.Float32frombits(specials[rng.Intn(len(specials))])
		} else {
			m.Data[i] = rng.Norm()
		}
	}
	return m
}

func sameBitsNaN(x, y float32) bool {
	return x != x && y != y || math.Float32bits(x) == math.Float32bits(y)
}

// Every shifted convolution of the reduced vgg16 and resnet20 at batch 1,
// 3, 16 and 64, and of the full-scale ones at batch 1 and 3 (their tapes at
// 64 run to hundreds of MB), in an order that leaves the workspaces stale:
// the tape equals the copy + clear-pads tape bit for bit, NaN payloads
// included, and the input gradient equals its add + clear-pads one (NaN
// payloads excepted, as for every add).
func TestShiftedLoweringMatchesCopyClearPads(t *testing.T) {
	type geom struct {
		in    Shape
		full  bool
		label string
	}
	geoms := []geom{
		{Shape{3, 16, 16}, false, "vgg16 conv1"}, {Shape{8, 8, 8}, false, "vgg16 conv2"},
		{Shape{16, 4, 4}, false, "vgg16 conv3"}, {Shape{24, 4, 4}, false, "vgg16 conv4"},
		{Shape{24, 2, 2}, false, "vgg16 conv5"}, {Shape{32, 2, 2}, false, "vgg16 conv6"},
		{Shape{3, 8, 8}, false, "resnet20 conv0"}, {Shape{8, 8, 8}, false, "resnet20 s0"},
		{Shape{12, 4, 4}, false, "resnet20 s1"}, {Shape{16, 2, 2}, false, "resnet20 s2"},
		{Shape{3, 32, 32}, true, "vgg16"}, {Shape{64, 32, 32}, true, "vgg16"}, {Shape{64, 16, 16}, true, "vgg16"},
		{Shape{128, 16, 16}, true, "vgg16"}, {Shape{128, 8, 8}, true, "vgg16"}, {Shape{256, 8, 8}, true, "vgg16"},
		{Shape{256, 4, 4}, true, "vgg16"}, {Shape{512, 4, 4}, true, "vgg16"}, {Shape{512, 2, 2}, true, "vgg16"},
		{Shape{16, 32, 32}, true, "resnet20"}, {Shape{32, 16, 16}, true, "resnet20"}, {Shape{64, 8, 8}, true, "resnet20"},
	}
	rng := tensor.NewRNG(41)
	for _, g := range geoms {
		c := NewConv2D(rng, g.in, 2, 3, 1, 1)
		if !c.shifted() {
			t.Fatalf("%s %+v: not the shifted geometry", g.label, g.in)
		}
		batches := []int{16, 64, 1, 3}
		if g.full {
			batches = []int{3, 1}
		}
		for _, rows := range batches {
			what := fmt.Sprintf("%s %+v batch %d", g.label, g.in, rows)
			x := loweringInput(rng, rows, g.in.Size())
			k, n := g.in.C*9, rows*g.in.H*g.in.W
			tape := c.tape.get(k, n)
			tensor.Fill(tape.Data, float32(math.NaN()))
			c.im2col(x, tape)
			for i, want := range im2colRef(c, x) {
				if math.Float32bits(tape.Data[i]) != math.Float32bits(want) {
					t.Fatalf("%s: tape element %d = %#x, copy + clear pads %#x", what, i, math.Float32bits(tape.Data[i]), math.Float32bits(want))
				}
			}
			dcols := loweringInput(rng, k, n)
			dx := c.dx.get(rows, g.in.Size())
			c.col2im(dcols, dx)
			for i, want := range col2imRef(c, dcols, rows) {
				if !sameBitsNaN(dx.Data[i], want) {
					t.Fatalf("%s: dx element %d = %#x, add + clear pads %#x", what, i, math.Float32bits(dx.Data[i]), math.Float32bits(want))
				}
			}
		}
	}
}
