// Package optim implements the optimizer and learning-rate machinery of the
// paper's Table 1: plain SGD with optional momentum and weight decay, the
// LARS layer-wise adaptive scaling used for the large-batch VGG-16 runs, and
// the LR policies — Linear Scaling (LS), Gradual Warmup (GW) and Polynomial
// Decay (PD).
//
// Params() order is the layout; position is identity; views move everything.
// The optimizer's state follows that rule: momentum is one buffer per tensor,
// parallel to the parameter list handed to Step and keyed by position —
// parameter names are labels and repeat wherever two layers share a shape.
// Velocity exposes the buffers so a tensor.VecView can snapshot and restore
// them.
package optim

import (
	"math"

	"a2sgd/internal/nn"
	"a2sgd/internal/tensor"
)

// Schedule computes the learning rate for an epoch. Schedules compose
// multiplicatively via Chain.
type Schedule interface {
	// LR returns the learning rate at the given (0-based) epoch out of
	// totalEpochs.
	LR(epoch, totalEpochs int) float64
}

// Const is a fixed learning rate.
type Const float64

// LR implements Schedule.
func (c Const) LR(int, int) float64 { return float64(c) }

// LinearScaling multiplies a base schedule by Factor·P — the "LS(1×)" /
// "LS(1.5×)" entries of Table 1, which scale the LR with worker count.
type LinearScaling struct {
	Base    Schedule
	Factor  float64
	Workers int
}

// LR implements Schedule.
func (l LinearScaling) LR(e, t int) float64 {
	return l.Base.LR(e, t) * l.Factor * float64(l.Workers)
}

// GradualWarmup ramps the LR linearly from Base/WarmupEpochs to the full
// base value over the first WarmupEpochs epochs (Goyal et al.).
type GradualWarmup struct {
	Base         Schedule
	WarmupEpochs int
}

// LR implements Schedule.
func (g GradualWarmup) LR(e, t int) float64 {
	base := g.Base.LR(e, t)
	if g.WarmupEpochs <= 0 || e >= g.WarmupEpochs {
		return base
	}
	return base * float64(e+1) / float64(g.WarmupEpochs)
}

// PolynomialDecay decays the LR to zero as (1 − e/T)^Power (Power 2 is the
// common default).
type PolynomialDecay struct {
	Base  Schedule
	Power float64
}

// LR implements Schedule.
func (p PolynomialDecay) LR(e, t int) float64 {
	if t <= 0 {
		return p.Base.LR(e, t)
	}
	frac := 1 - float64(e)/float64(t)
	if frac < 0 {
		frac = 0
	}
	pw := p.Power
	if pw == 0 {
		pw = 2
	}
	return p.Base.LR(e, t) * math.Pow(frac, pw)
}

// PolicyFor returns the Table 1 LR policy for a model family at a worker
// count: FNN-3 "LS(1×)+GW+PD" @ 0.01, VGG-16 "LS(1.5×)+GW+PD+LARS" @ 0.1,
// ResNet-20 "LS(1×)+GW+PD" @ 0.1, LSTM "PD" @ 22. The LARS flag is returned
// separately since it modifies the optimizer, not the schedule.
func PolicyFor(family string, workers int) (s Schedule, useLARS bool) {
	switch family {
	case "fnn3":
		return PolynomialDecay{Base: GradualWarmup{
			Base:         LinearScaling{Base: Const(0.01), Factor: 1, Workers: workers},
			WarmupEpochs: 3,
		}}, false
	case "vgg16":
		return PolynomialDecay{Base: GradualWarmup{
			Base:         LinearScaling{Base: Const(0.1), Factor: 1.5, Workers: workers},
			WarmupEpochs: 3,
		}}, true
	case "resnet20":
		return PolynomialDecay{Base: GradualWarmup{
			Base:         LinearScaling{Base: Const(0.1), Factor: 1, Workers: workers},
			WarmupEpochs: 3,
		}}, false
	case "lstm":
		return PolynomialDecay{Base: Const(22)}, false
	default:
		return Const(0.01), false
	}
}

// SGD applies w ← w − η·(g + wd·w) with optional momentum and optional LARS
// layer-wise trust scaling.
type SGD struct {
	// Momentum in [0, 1); 0 disables the velocity buffers.
	Momentum float32
	// WeightDecay is the L2 coefficient applied inside the update.
	WeightDecay float32
	// LARS enables layer-wise adaptive rate scaling (You et al., the
	// paper's reference [11]): each parameter tensor's step is scaled by
	// Trust·‖w‖/(‖g‖ + wd·‖w‖ + ε).
	LARS bool
	// Trust is the LARS trust coefficient (default 0.001 when zero).
	Trust float64

	vel [][]float32 // momentum buffers, parallel to the parameter list
}

// NewSGD builds a plain SGD optimizer.
func NewSGD(momentum, weightDecay float32) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update with learning rate lr to all parameters.
func (s *SGD) Step(params []nn.Param, lr float64) {
	var vel [][]float32
	if s.Momentum > 0 {
		vel = s.Velocity(params)
	}
	for k, p := range params {
		step := lr
		if s.LARS {
			trust := s.Trust
			if trust == 0 {
				trust = 0.001
			}
			wn := tensor.Norm2(p.W)
			gn := tensor.Norm2(p.G)
			denom := gn + float64(s.WeightDecay)*wn + 1e-12
			if wn > 0 && denom > 0 {
				local := trust * wn / denom
				// Clamp the adaptive ratio: with sparse or error-compensated
				// gradients ‖g‖ can be near zero, which would otherwise send
				// the local rate to infinity and destabilize training.
				if local > 10 {
					local = 10
				}
				step = lr * local
			}
		}
		if s.Momentum > 0 {
			v := vel[k]
			for i := range p.W {
				g := p.G[i] + s.WeightDecay*p.W[i]
				v[i] = s.Momentum*v[i] + g
				p.W[i] -= float32(step) * v[i]
			}
		} else {
			for i := range p.W {
				g := p.G[i] + s.WeightDecay*p.W[i]
				p.W[i] -= float32(step) * g
			}
		}
	}
}

// Velocity returns the momentum buffers, one per tensor of params in params
// order, allocating (zeroed) those that do not exist yet — so an optimizer
// restored by copying into them is indistinguishable from one that has
// stepped. The buffers are live: Step advances them in place.
func (s *SGD) Velocity(params []nn.Param) [][]float32 {
	if len(s.vel) != len(params) {
		s.vel = make([][]float32, len(params))
	}
	for i, p := range params {
		if len(s.vel[i]) != len(p.W) {
			s.vel[i] = make([]float32, len(p.W))
		}
	}
	return s.vel
}
