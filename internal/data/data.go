// Package data provides synthetic stand-ins for the paper's datasets, which
// are unavailable in this offline environment:
//
//   - MNIST   → Gaussian class clusters around per-class prototype images
//   - CIFAR10 → oriented sinusoidal textures per class plus noise; each
//     class's texture is rendered once, when the generator is built, so a
//     sample costs one NormVec draw and one add per pixel
//   - PTB     → a Zipf-weighted Markov token stream
//
// Each generator produces genuinely learnable structure, so models trained
// on them exhibit the gradient dynamics the paper's experiments depend on —
// gradients concentrate around zero as training progresses (Figure 1) and
// accuracy/perplexity improves with epochs (Figure 3). The substitution is
// recorded in PAPER.md, Table 1.
package data

import (
	"fmt"

	"a2sgd/internal/models"
	"a2sgd/internal/nn"
	"a2sgd/internal/tensor"
)

// ImageKind selects an image-generation recipe.
type ImageKind int

// Image dataset recipes.
const (
	// MNISTLike draws each sample as a per-class prototype plus Gaussian
	// pixel noise (unimodal clusters, like flattened digit images).
	MNISTLike ImageKind = iota
	// CIFARLike draws class-specific oriented sinusoidal textures with
	// noise — higher intra-class variance, channel structure.
	CIFARLike
)

// Images generates labelled synthetic images.
type Images struct {
	Kind    ImageKind
	Shape   nn.Shape
	Classes int
	// Noise is the per-pixel noise std (higher = harder task).
	Noise float32

	// protos holds each class's base image: its prototype (MNISTLike) or
	// its texture, rendered once (CIFARLike).
	protos [][]float32
}

// NewImages builds a generator. The prototypes/textures are derived from
// seed only, so every worker constructs an identical task.
func NewImages(kind ImageKind, shape nn.Shape, classes int, noise float32, seed uint64) *Images {
	if classes < 2 {
		panic("data: need at least 2 classes")
	}
	d := &Images{Kind: kind, Shape: shape, Classes: classes, Noise: noise}
	d.protos = make([][]float32, classes)
	rng := tensor.NewRNG(seed)
	switch kind {
	case MNISTLike:
		for c := range d.protos {
			p := make([]float32, shape.Size())
			rng.NormVec(p, 0, 1)
			d.protos[c] = p
		}
	case CIFARLike:
		// Per class: an x and a y frequency and a phase.
		freqs := make([][3]float32, classes)
		for c := range freqs {
			freqs[c] = [3]float32{
				0.5 + 3*rng.Float32(),
				0.5 + 3*rng.Float32(),
				6.28 * rng.Float32(),
			}
		}
		for c, f := range freqs {
			p := make([]float32, shape.Size())
			for ch := 0; ch < shape.C; ch++ {
				chF := 1 + 0.3*float32(ch)
				for y := 0; y < shape.H; y++ {
					for x := 0; x < shape.W; x++ {
						arg := f[0]*chF*float32(x) + f[1]*float32(y) + f[2]
						p[(ch*shape.H+y)*shape.W+x] = sin32(arg)
					}
				}
			}
			d.protos[c] = p
		}
	default:
		panic(fmt.Sprintf("data: unknown image kind %d", kind))
	}
	return d
}

// fillSample draws one sample of class c into dst: the class's base image
// plus N(0, Noise²) pixel noise, one variate per pixel in pixel order, the
// noise and the sum each rounded to float32. NormVec's mean 0 adds nothing
// (Noise·z is never −0), so dst[i] holds proto[i] + Noise·z's bits.
func (d *Images) fillSample(rng *tensor.RNG, c int, dst []float32) {
	rng.NormVec(dst, 0, d.Noise)
	for i, p := range d.protos[c] {
		dst[i] = p + dst[i]
	}
}

// Sample draws a batch of size n with uniform class labels using the
// caller's RNG (each worker passes its own stream → disjoint shards).
func (d *Images) Sample(rng *tensor.RNG, n int) models.Batch {
	var b models.Batch
	d.SampleInto(rng, n, &b)
	return b
}

// SampleInto is Sample into a caller-owned batch: b's matrix and label slice
// are reused when large enough, so a training loop that keeps one batch
// samples without allocating. The RNG draws are Sample's, in Sample's order.
func (d *Images) SampleInto(rng *tensor.RNG, n int, b *models.Batch) {
	size := d.Shape.Size()
	if b.X == nil {
		b.X = &tensor.Mat{}
	}
	if cap(b.X.Data) < n*size {
		b.X.Data = make([]float32, n*size)
	}
	b.X.Rows, b.X.Cols, b.X.Data = n, size, b.X.Data[:n*size]
	if cap(b.Labels) < n {
		b.Labels = make([]int, n)
	}
	b.Labels = b.Labels[:n]
	b.Tokens = nil
	for s := 0; s < n; s++ {
		c := rng.Intn(d.Classes)
		b.Labels[s] = c
		d.fillSample(rng, c, b.X.Row(s))
	}
}

// EvalSet returns a deterministic held-out batch shared by all workers.
func (d *Images) EvalSet(n int, seed uint64) models.Batch {
	return d.Sample(tensor.NewRNG(seed^0xeea1eea1), n)
}

func sin32(x float32) float32 {
	// Cheap range-reduced sine good to ~1e-3 — fine for texture synthesis.
	const twoPi = 6.283185307179586
	f := float64(x)
	f -= float64(int64(f/twoPi)) * twoPi
	if f < 0 {
		f += twoPi
	}
	// Bhaskara-like approximation on [0, π], mirrored for [π, 2π].
	neg := false
	if f > 3.141592653589793 {
		f -= 3.141592653589793
		neg = true
	}
	v := 16 * f * (3.141592653589793 - f) / (49.3480220054468 - 4*f*(3.141592653589793-f))
	if neg {
		v = -v
	}
	return float32(v)
}

// Text generates a Zipf-weighted Markov token stream — the PTB stand-in.
// The chain has deterministic high-probability successor structure so a
// language model can reduce perplexity well below the vocabulary size.
type Text struct {
	Vocab int
	// succ[t] is token t's preferred successor (taken with prob. PSucc).
	succ  []int
	PSucc float64
	zipf  *tensor.Zipf // exponent 1.1 over the vocabulary; its table is built once
}

// NewText builds a corpus generator over a vocab-token alphabet.
func NewText(vocab int, seed uint64) *Text {
	if vocab < 4 {
		panic("data: vocab too small")
	}
	rng := tensor.NewRNG(seed)
	succ := make([]int, vocab)
	for t := range succ {
		succ[t] = rng.Intn(vocab)
	}
	return &Text{Vocab: vocab, succ: succ, PSucc: 0.7, zipf: tensor.NewZipf(nil, vocab, 1.1)}
}

// Sample draws a batch of token sequences of the given length (the model
// predicts positions 1..seqLen−1 from their predecessors).
func (t *Text) Sample(rng *tensor.RNG, batch, seqLen int) models.Batch {
	var b models.Batch
	t.SampleInto(rng, batch, seqLen, &b)
	return b
}

// SampleInto is Sample into a caller-owned batch: b's token rows are reused
// when large enough. The RNG draws are Sample's, in Sample's order.
func (t *Text) SampleInto(rng *tensor.RNG, batch, seqLen int, b *models.Batch) {
	if seqLen < 2 {
		panic("data: seqLen must be ≥ 2")
	}
	if cap(b.Tokens) < batch {
		b.Tokens = append(b.Tokens[:cap(b.Tokens)], make([][]int, batch-cap(b.Tokens))...)
	}
	b.Tokens = b.Tokens[:batch]
	b.X, b.Labels = nil, nil
	for r := range b.Tokens {
		if cap(b.Tokens[r]) < seqLen {
			b.Tokens[r] = make([]int, seqLen)
		}
		seq := b.Tokens[r][:seqLen]
		b.Tokens[r] = seq
		seq[0] = t.zipf.Draw(rng)
		for i := 1; i < seqLen; i++ {
			if rng.Float64() < t.PSucc {
				seq[i] = t.succ[seq[i-1]]
			} else {
				seq[i] = t.zipf.Draw(rng)
			}
		}
	}
}

// EvalSet returns a deterministic held-out batch shared by all workers.
func (t *Text) EvalSet(batch, seqLen int, seed uint64) models.Batch {
	return t.Sample(tensor.NewRNG(seed^0x7e57da7a), batch, seqLen)
}

// ForFamily builds the conventional dataset for a model family at reduced
// scale, mirroring Table 1's model↔dataset pairing.
func ForFamily(family string, seed uint64) (img *Images, txt *Text, err error) {
	switch family {
	case "fnn3":
		return NewImages(MNISTLike, nn.Shape{C: 1, H: 8, W: 8}, 10, 0.6, seed), nil, nil
	case "vgg16":
		return NewImages(CIFARLike, nn.Shape{C: 3, H: 16, W: 16}, 10, 0.5, seed), nil, nil
	case "resnet20":
		return NewImages(CIFARLike, nn.Shape{C: 3, H: 8, W: 8}, 10, 0.5, seed), nil, nil
	case "lstm":
		return nil, NewText(64, seed), nil
	default:
		return nil, nil, fmt.Errorf("data: unknown family %q", family)
	}
}
