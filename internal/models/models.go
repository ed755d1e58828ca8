// Package models builds the four DNN families of the paper's evaluation
// (Table 1): FNN-3 (three hidden fully connected layers), VGG-16, ResNet-20
// and LSTM-PTB, behind a uniform Model interface consumed by the distributed
// training runtime.
//
// Two scales exist for every family:
//
//   - Paper scale — the exact parameter counts of Table 1 (199,210 /
//     14,728,266 / 269,722 / 66,034,000). Used by the traffic and
//     compression-compute experiments (Figure 2, Table 2), which operate on
//     parameter vectors, not on training.
//   - Reduced scale — architecturally faithful CPU-trainable versions (same
//     layer patterns: three hidden FC layers; VGG conv-conv-pool stacks;
//     ResNet identity-shortcut residual stacks; single-layer LSTM LM) used
//     by the convergence experiments (Figures 3, 6–8). The substitution is
//     recorded in PAPER.md, Table 1.
//
// Params() order is the layout; position is identity; views move everything.
// A Model exposes its learnable tensors (Params) and its non-learnable ones
// (State); whoever needs the flattened weights, gradients or state lays a
// tensor.VecView over them (nn.WeightViewOf, nn.GradViewOf) and copies or
// slices through it. A tensor's position in Params() is what identifies it —
// names repeat wherever two layers share a shape.
package models

import (
	"fmt"

	"a2sgd/internal/nn"
	"a2sgd/internal/tensor"
)

// Batch is one training or evaluation batch. Classification models use
// X/Labels; language models use Tokens.
type Batch struct {
	X      *tensor.Mat
	Labels []int
	Tokens [][]int
}

// Size returns the number of samples in the batch.
func (b Batch) Size() int {
	if b.X != nil {
		return b.X.Rows
	}
	return len(b.Tokens)
}

// Metric distinguishes how a model's quality is reported.
type Metric int

// Metric kinds.
const (
	// MetricAccuracy: top-1 accuracy in [0, 1]; higher is better.
	MetricAccuracy Metric = iota
	// MetricPerplexity: exp(cross-entropy); lower is better.
	MetricPerplexity
)

// Model is the uniform interface the distributed runtime trains.
type Model interface {
	// Name identifies the model family ("fnn3", "vgg16", ...).
	Name() string
	// NumParams returns the learnable parameter count.
	NumParams() int
	// Step runs forward+backward on the batch, accumulating gradients
	// (after ZeroGrads), and returns the batch loss.
	Step(b Batch) float64
	// StepInterleaved is Step with gradient-readiness reporting: onReady(lo)
	// is invoked during the backward pass whenever the flattened gradient
	// elements [lo, NumParams()) have become final, with strictly decreasing
	// offsets and a guaranteed final onReady(0).
	StepInterleaved(b Batch, onReady func(lo int)) float64
	// Eval runs forward only and returns (loss, metric).
	Eval(b Batch) (loss float64, metric float64)
	// Metric reports how metric values should be interpreted.
	Metric() Metric
	// ZeroGrads clears the gradient accumulators.
	ZeroGrads()
	// Params exposes the learnable tensors. Their order is the layout of the
	// flattened weight and gradient vectors.
	Params() []nn.Param
	// ParamSegments reports the per-tensor boundaries of the flattened
	// vector, in Params() order, for layer-granular bucket planning.
	ParamSegments() []nn.Segment
	// State exposes the live non-learnable tensors (batch-norm running
	// statistics) a snapshot must carry; their order is the layout of the
	// flattened model state. Models without such state return none.
	State() [][]float32
}

// classifier adapts an nn.Network to the Model interface.
type classifier struct {
	name string
	net  *nn.Network
	ce   nn.SoftmaxLoss
}

func (c *classifier) Name() string       { return c.name }
func (c *classifier) NumParams() int     { return c.net.NumParams() }
func (c *classifier) Metric() Metric     { return MetricAccuracy }
func (c *classifier) ZeroGrads()         { c.net.ZeroGrads() }
func (c *classifier) Params() []nn.Param { return c.net.Params() }

func (c *classifier) Step(b Batch) float64 {
	logits := c.net.Forward(b.X, true)
	loss, dlogits := c.ce.Loss(logits, b.Labels)
	c.net.BackwardInterleaved(dlogits, nil)
	return loss
}

func (c *classifier) StepInterleaved(b Batch, onReady func(lo int)) float64 {
	logits := c.net.Forward(b.X, true)
	loss, dlogits := c.ce.Loss(logits, b.Labels)
	c.net.BackwardInterleaved(dlogits, onReady)
	return loss
}

func (c *classifier) Eval(b Batch) (float64, float64) {
	logits := c.net.Forward(b.X, false)
	loss, _ := c.ce.Loss(logits, b.Labels)
	return loss, nn.Accuracy(logits, b.Labels)
}

func (c *classifier) ParamSegments() []nn.Segment { return c.net.ParamSegments() }
func (c *classifier) State() [][]float32          { return c.net.State() }

// Config selects a model family and scale.
type Config struct {
	// Family is one of "fnn3", "vgg16", "resnet20", "lstm".
	Family string
	// Seed seeds weight initialization (all workers must agree).
	Seed uint64
	// Reduced selects the CPU-trainable scale (true for convergence runs).
	Reduced bool

	// Classification input/output spec (reduced scale). Zero values pick
	// the family defaults below.
	InputShape nn.Shape
	Classes    int

	// Language-model spec (reduced scale).
	Vocab, Embed, Hidden int
}

// PaperParamCount returns the Table 1 parameter count for a family.
func PaperParamCount(family string) (int, error) {
	switch family {
	case "fnn3":
		return 199_210, nil
	case "vgg16":
		return 14_728_266, nil
	case "resnet20":
		return 269_722, nil
	case "lstm":
		return 66_034_000, nil
	default:
		return 0, fmt.Errorf("models: unknown family %q", family)
	}
}

// Families lists the evaluation model families in Table 1 order.
func Families() []string { return []string{"fnn3", "vgg16", "resnet20", "lstm"} }

// New builds a model from the configuration.
func New(cfg Config) (Model, error) {
	rng := tensor.NewRNG(cfg.Seed)
	switch cfg.Family {
	case "fnn3":
		return newFNN3(rng, cfg), nil
	case "vgg16":
		return newVGG16(rng, cfg), nil
	case "resnet20":
		return newResNet20(rng, cfg), nil
	case "lstm":
		return newLSTM(rng, cfg), nil
	default:
		return nil, fmt.Errorf("models: unknown family %q", cfg.Family)
	}
}

// newFNN3 builds the FNN-3 feed-forward network: three hidden fully
// connected layers, as in the paper (MNIST: 784→256→128→64→10 at paper
// scale ≈ 199k params; reduced default 64→64→48→32→10).
func newFNN3(rng *tensor.RNG, cfg Config) Model {
	in, classes := cfg.InputShape, cfg.Classes
	if in.Size() == 0 {
		if cfg.Reduced {
			in = nn.Shape{C: 1, H: 8, W: 8}
		} else {
			in = nn.Shape{C: 1, H: 28, W: 28}
		}
	}
	if classes == 0 {
		classes = 10
	}
	var h1, h2, h3 int
	if cfg.Reduced {
		h1, h2, h3 = 64, 48, 32
	} else {
		// The paper does not spell out FNN-3's widths; these are solved to
		// land on Table 1's 199,210 parameters (784·223 + 223 + 223·88 +
		// 88 + 88·45 + 45 + 45·10 + 10 = 199,232 — within 0.011 %).
		h1, h2, h3 = 223, 88, 45
	}
	net := nn.NewNetwork(
		nn.NewLinear(rng, in.Size(), h1), nn.NewReLU(),
		nn.NewLinear(rng, h1, h2), nn.NewReLU(),
		nn.NewLinear(rng, h2, h3), nn.NewReLU(),
		nn.NewLinear(rng, h3, classes),
	)
	return &classifier{name: "fnn3", net: net}
}

// vggBlock appends conv(3×3, pad 1) + BN + ReLU ×reps then a 2×2 max pool.
func vggBlock(rng *tensor.RNG, layers *[]nn.Layer, in nn.Shape, outC, reps int) nn.Shape {
	cur := in
	for i := 0; i < reps; i++ {
		conv := nn.NewConv2D(rng, cur, outC, 3, 1, 1)
		*layers = append(*layers, conv)
		cur = conv.OutShape()
		*layers = append(*layers, nn.NewBatchNorm2D(cur), nn.NewReLU())
	}
	pool := nn.NewMaxPool2D(cur, 2)
	*layers = append(*layers, pool)
	return pool.OutShape()
}

// newVGG16 builds the VGG-16 pattern: five conv blocks of increasing width
// followed by the classifier head. Reduced scale uses 16×16 inputs, widths
// /8 and block reps (1,1,2,2,2) to stay CPU-trainable while preserving the
// conv-conv-pool architecture.
func newVGG16(rng *tensor.RNG, cfg Config) Model {
	in, classes := cfg.InputShape, cfg.Classes
	if classes == 0 {
		classes = 10
	}
	var widths [5]int
	var reps [5]int
	if cfg.Reduced {
		if in.Size() == 0 {
			in = nn.Shape{C: 3, H: 16, W: 16}
		}
		widths = [5]int{8, 16, 24, 32, 32}
		reps = [5]int{1, 1, 2, 2, 2}
	} else {
		if in.Size() == 0 {
			in = nn.Shape{C: 3, H: 32, W: 32}
		}
		widths = [5]int{64, 128, 256, 512, 512}
		reps = [5]int{2, 2, 3, 3, 3}
	}
	var layers []nn.Layer
	cur := in
	for b := 0; b < 5; b++ {
		if cur.H < 2 { // reduced inputs run out of spatial extent early
			break
		}
		cur = vggBlock(rng, &layers, cur, widths[b], reps[b])
	}
	layers = append(layers, nn.NewLinear(rng, cur.Size(), classes))
	return &classifier{name: "vgg16", net: nn.NewNetwork(layers...)}
}

// newResNet20 builds the ResNet-20 pattern (He et al., 6n+2 with n=3 for
// CIFAR): an input conv, three stages of residual blocks with widths
// 16/32/64, stride-2 projection shortcuts at the stage boundaries, global
// average pooling and a linear head. The full-scale count lands within ~1 %
// of Table 1's 269,722. The reduced scale keeps the same topology (one
// block per stage, i.e. ResNet-8) with narrower widths on 8×8 inputs.
func newResNet20(rng *tensor.RNG, cfg Config) Model {
	in, classes := cfg.InputShape, cfg.Classes
	if classes == 0 {
		classes = 10
	}
	var widths [3]int
	blocksPerStage := 3
	if cfg.Reduced {
		if in.Size() == 0 {
			in = nn.Shape{C: 3, H: 8, W: 8}
		}
		widths = [3]int{8, 12, 16}
		blocksPerStage = 1
	} else {
		if in.Size() == 0 {
			in = nn.Shape{C: 3, H: 32, W: 32}
		}
		widths = [3]int{16, 32, 64}
	}
	var layers []nn.Layer
	conv0 := nn.NewConv2D(rng, in, widths[0], 3, 1, 1)
	cur := conv0.OutShape()
	layers = append(layers, conv0, nn.NewBatchNorm2D(cur), nn.NewReLU())
	for stage := 0; stage < 3; stage++ {
		for blk := 0; blk < blocksPerStage; blk++ {
			stride := 1
			if stage > 0 && blk == 0 {
				stride = 2 // downsampling block at the stage boundary
			}
			c1 := nn.NewConv2D(rng, cur, widths[stage], 3, stride, 1)
			s1 := c1.OutShape()
			c2 := nn.NewConv2D(rng, s1, widths[stage], 3, 1, 1)
			s2 := c2.OutShape()
			inner := []nn.Layer{
				c1, nn.NewBatchNorm2D(s1), nn.NewReLU(),
				c2, nn.NewBatchNorm2D(s2),
			}
			label := fmt.Sprintf("s%db%d", stage, blk)
			if stride == 1 && cur == s2 {
				layers = append(layers, nn.NewResidual(label, inner...))
			} else {
				// 1×1 strided projection shortcut (plus BN), as in He et al.
				pc := nn.NewConv2D(rng, cur, widths[stage], 1, stride, 0)
				proj := []nn.Layer{pc, nn.NewBatchNorm2D(pc.OutShape())}
				layers = append(layers, nn.NewProjResidual(label, proj, inner...))
			}
			layers = append(layers, nn.NewReLU())
			cur = s2
		}
	}
	layers = append(layers, nn.NewGlobalAvgPool(cur), nn.NewLinear(rng, cur.C, classes))
	return &classifier{name: "resnet20", net: nn.NewNetwork(layers...)}
}

// lstmModel adapts nn.LSTMLM to the Model interface.
type lstmModel struct {
	lm *nn.LSTMLM
}

func (l *lstmModel) Name() string   { return "lstm" }
func (l *lstmModel) NumParams() int { return l.lm.NumParams() }
func (l *lstmModel) Metric() Metric { return MetricPerplexity }

func (l *lstmModel) Params() []nn.Param { return l.lm.Params() }

func (l *lstmModel) Step(b Batch) float64 {
	ce := l.lm.Forward(b.Tokens, true)
	l.lm.Backward()
	return ce
}

// StepInterleaved reports per-tensor readiness from inside truncated BPTT:
// the backward finalizes the output projection first, then each LSTM layer
// top-down, then the embedding — see nn.LSTMLM.BackwardInterleaved.
func (l *lstmModel) StepInterleaved(b Batch, onReady func(lo int)) float64 {
	ce := l.lm.Forward(b.Tokens, true)
	l.lm.BackwardInterleaved(onReady)
	return ce
}

func (l *lstmModel) Eval(b Batch) (float64, float64) {
	ce := l.lm.Forward(b.Tokens, false)
	return ce, nn.Perplexity(ce)
}

func (l *lstmModel) ZeroGrads() {
	for _, p := range l.lm.Params() {
		tensor.Zero(p.G)
	}
}

func (l *lstmModel) ParamSegments() []nn.Segment { return nn.SegmentsOf(l.lm.Params()) }

// State implements Model: the LSTM carries no cross-batch state (hidden
// state is reset per truncated-BPTT window), so there is nothing to capture.
func (l *lstmModel) State() [][]float32 { return nil }

// newLSTM builds the LSTM-PTB pattern. Paper scale: vocab 10,000, embedding
// and hidden 1500, two stacked layers (the Zaremba "large" PTB
// configuration) — 66.02 M parameters, matching Table 1's 66,034,000 to
// within 0.02 %. Reduced: vocab 64, embed 16, hidden 32, one layer.
func newLSTM(rng *tensor.RNG, cfg Config) Model {
	v, e, h := cfg.Vocab, cfg.Embed, cfg.Hidden
	layers := 2
	if v == 0 {
		if cfg.Reduced {
			v, e, h = 64, 16, 32
			layers = 1
		} else {
			v, e, h = 10_000, 1500, 1500
		}
	} else if cfg.Reduced {
		layers = 1
	}
	return &lstmModel{lm: nn.NewDeepLSTMLM(rng, v, e, h, layers)}
}

// StepMACs returns the multiply-adds of the matrix products in one Step on
// batch b, computed from the layer shapes: every weighted layer's forward
// product, its weight gradient and its input gradient, except the bottom
// layer's input gradient, which a classifier's Step does not form. For the
// LSTM that is the output projection and, per layer and time step, the
// input and recurrent products, their weight gradients and the input
// gradient, with the recurrent gradient of the first step left out (BPTT
// stops there). Elementwise work (activations, batch norm, pooling, the
// optimizer) is not counted.
func StepMACs(m Model, b Batch) int64 {
	switch m := m.(type) {
	case *classifier:
		return layersMACs(m.net.Layers, int64(b.Size()), true)
	case *lstmModel:
		lm := m.lm
		B, T := int64(len(b.Tokens)), int64(len(b.Tokens[0])-1)
		H, V := int64(lm.Hidden), int64(lm.Vocab)
		macs := 3 * T * B * H * V
		for l := 0; l < lm.Layers; l++ {
			in := int64(lm.Embed)
			if l > 0 {
				in = H
			}
			macs += 3*T*B*in*4*H + (3*T-1)*B*H*4*H
		}
		return macs
	}
	panic(fmt.Sprintf("models: StepMACs of %T", m))
}

// layersMACs is StepMACs over a layer stack for n samples; bottom says the
// stack's first weighted layer forms no input gradient.
func layersMACs(layers []nn.Layer, n int64, bottom bool) int64 {
	var macs int64
	for i, l := range layers {
		grads := int64(3)
		if bottom && i == 0 {
			grads = 2
		}
		switch l := l.(type) {
		case *nn.Conv2D:
			out := l.OutShape()
			macs += grads * n * int64(out.Size()) * int64(l.In.C*l.KH*l.KW)
		case *nn.Linear:
			macs += grads * n * int64(l.InF) * int64(l.OutF)
		case *nn.Residual:
			macs += layersMACs(l.Inner, n, false) + layersMACs(l.Proj, n, false)
		}
	}
	return macs
}
