package optim

import (
	"math"
	"testing"

	"a2sgd/internal/models"
	"a2sgd/internal/nn"
)

func TestConstSchedule(t *testing.T) {
	if Const(0.1).LR(5, 100) != 0.1 {
		t.Error("const")
	}
}

func TestLinearScaling(t *testing.T) {
	s := LinearScaling{Base: Const(0.1), Factor: 1.5, Workers: 8}
	if got := s.LR(0, 10); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("got %v want 1.2", got)
	}
}

func TestGradualWarmup(t *testing.T) {
	s := GradualWarmup{Base: Const(1), WarmupEpochs: 4}
	wants := []float64{0.25, 0.5, 0.75, 1, 1, 1}
	for e, w := range wants {
		if got := s.LR(e, 10); math.Abs(got-w) > 1e-12 {
			t.Errorf("epoch %d: got %v want %v", e, got, w)
		}
	}
	// No warmup configured → identity.
	s0 := GradualWarmup{Base: Const(2)}
	if s0.LR(0, 10) != 2 {
		t.Error("zero warmup should be identity")
	}
}

func TestPolynomialDecay(t *testing.T) {
	s := PolynomialDecay{Base: Const(1), Power: 2}
	if got := s.LR(0, 10); got != 1 {
		t.Errorf("epoch 0: %v", got)
	}
	if got := s.LR(5, 10); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("epoch 5: %v want 0.25", got)
	}
	if got := s.LR(10, 10); got != 0 {
		t.Errorf("final epoch: %v want 0", got)
	}
	if got := s.LR(15, 10); got != 0 {
		t.Errorf("past end must clamp: %v", got)
	}
	// Zero power defaults to 2; zero total epochs is identity.
	d := PolynomialDecay{Base: Const(1)}
	if got := d.LR(5, 10); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("default power: %v", got)
	}
	if d.LR(3, 0) != 1 {
		t.Error("t=0 should be identity")
	}
}

func TestPolicyForMatchesTable1(t *testing.T) {
	// FNN: LS(1x)+GW+PD at base 0.01 → epoch after warmup, early in decay.
	s, lars := PolicyFor("fnn3", 8)
	if lars {
		t.Error("fnn3 should not use LARS")
	}
	// After warmup (epoch 3 of 30): LR ≈ 0.01·8·(1-3/30)².
	want := 0.01 * 8 * math.Pow(0.9, 2)
	if got := s.LR(3, 30); math.Abs(got-want) > 1e-9 {
		t.Errorf("fnn3 LR = %v want %v", got, want)
	}
	// VGG: factor 1.5 and LARS on.
	s, lars = PolicyFor("vgg16", 4)
	if !lars {
		t.Error("vgg16 should use LARS")
	}
	want = 0.1 * 1.5 * 4 * math.Pow(1-3.0/150, 2)
	if got := s.LR(3, 150); math.Abs(got-want) > 1e-9 {
		t.Errorf("vgg16 LR = %v want %v", got, want)
	}
	// LSTM: plain PD at 22, no scaling with workers.
	s, lars = PolicyFor("lstm", 16)
	if lars {
		t.Error("lstm: no LARS")
	}
	if got := s.LR(0, 100); math.Abs(got-22) > 1e-9 {
		t.Errorf("lstm epoch-0 LR = %v want 22", got)
	}
	// Unknown family falls back to a small constant.
	s, _ = PolicyFor("nope", 2)
	if s.LR(0, 1) != 0.01 {
		t.Error("fallback policy")
	}
}

func makeParam(w, g []float32) nn.Param {
	return nn.Param{Name: "p", W: w, G: g}
}

func TestSGDPlainStep(t *testing.T) {
	w := []float32{1, 2}
	g := []float32{0.5, -0.5}
	s := NewSGD(0, 0)
	s.Step([]nn.Param{makeParam(w, g)}, 0.1)
	if math.Abs(float64(w[0])-0.95) > 1e-6 || math.Abs(float64(w[1])-2.05) > 1e-6 {
		t.Errorf("w = %v", w)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	w := []float32{1}
	g := []float32{0}
	s := NewSGD(0, 0.1)
	s.Step([]nn.Param{makeParam(w, g)}, 1)
	// w ← w − 1·(0 + 0.1·1) = 0.9
	if math.Abs(float64(w[0])-0.9) > 1e-6 {
		t.Errorf("w = %v", w)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	w := []float32{0}
	g := []float32{1}
	s := NewSGD(0.9, 0)
	s.Step([]nn.Param{makeParam(w, g)}, 1) // v=1, w=-1
	s.Step([]nn.Param{makeParam(w, g)}, 1) // v=1.9, w=-2.9
	if math.Abs(float64(w[0])+2.9) > 1e-6 {
		t.Errorf("w = %v, want -2.9", w[0])
	}
}

// TestSGDMomentumIsPerTensor: Step equals a naive reference that keeps one
// private velocity slice per tensor, bit for bit, on a parameter list in which
// two tensors carry the same name and length — position, not name, is a
// tensor's identity.
func TestSGDMomentumIsPerTensor(t *testing.T) {
	build := func() []nn.Param {
		return []nn.Param{
			{Name: "Conv2D.W", W: []float32{1, -2, 3}, G: make([]float32, 3)},
			{Name: "Conv2D.W", W: []float32{0.5, 0.25, -1}, G: make([]float32, 3)},
			{Name: "Linear.b", W: []float32{2}, G: make([]float32, 1)},
		}
	}
	momentum, decay, lr := float32(0.9), float32(0.01), float32(0.1)
	got, want := build(), build()
	s := NewSGD(momentum, decay)
	ref := make([][]float32, len(want))
	for k, p := range want {
		ref[k] = make([]float32, len(p.W))
	}
	for step := 1; step <= 3; step++ {
		for k := range want {
			for i := range want[k].G {
				g := float32(step*(k+1)) - 0.75*float32(i)
				got[k].G[i], want[k].G[i] = g, g
			}
		}
		s.Step(got, float64(lr))
		for k, p := range want {
			for i := range p.W {
				g := p.G[i] + decay*p.W[i]
				ref[k][i] = momentum*ref[k][i] + g
				p.W[i] -= lr * ref[k][i]
			}
		}
		for k := range want {
			for i := range want[k].W {
				if math.Float32bits(got[k].W[i]) != math.Float32bits(want[k].W[i]) {
					t.Fatalf("step %d tensor %d[%d]: %v, per-tensor reference %v", step, k, i, got[k].W[i], want[k].W[i])
				}
			}
		}
	}
}

// TestVelocityBuffersNeverAlias: after one momentum step on each family,
// every tensor has velocity storage of its own size that no other tensor's
// overlaps.
func TestVelocityBuffersNeverAlias(t *testing.T) {
	for _, fam := range models.Families() {
		m, err := models.New(models.Config{Family: fam, Seed: 1, Reduced: true})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSGD(0.9, 0)
		s.Step(m.Params(), 0.1)
		vel := s.Velocity(m.Params())
		if len(vel) != len(m.Params()) {
			t.Fatalf("%s: %d velocity buffers for %d tensors", fam, len(vel), len(m.Params()))
		}
		owner := map[*float32]int{}
		for k, v := range vel {
			if len(v) != len(m.Params()[k].W) {
				t.Fatalf("%s: tensor %d has %d weights, %d velocity values", fam, k, len(m.Params()[k].W), len(v))
			}
			for i := range v {
				if prev, ok := owner[&v[i]]; ok {
					t.Fatalf("%s: tensors %d and %d (%s) share velocity storage", fam, prev, k, m.Params()[k].Name)
				}
				owner[&v[i]] = k
			}
		}
	}
}

func TestSGDLARSScalesByLayer(t *testing.T) {
	// Two layers with identical gradients but different weight norms must
	// receive different effective steps under LARS.
	w1 := []float32{10, 0}
	w2 := []float32{0.1, 0}
	g1 := []float32{1, 0}
	g2 := []float32{1, 0}
	s := &SGD{LARS: true, Trust: 0.01}
	s.Step([]nn.Param{{Name: "a", W: w1, G: g1}, {Name: "b", W: w2, G: g2}}, 1)
	step1 := 10 - float64(w1[0])
	step2 := 0.1 - float64(w2[0])
	// local lr = trust·‖w‖/‖g‖ → layer 1 steps 0.1, layer 2 steps 0.001.
	if math.Abs(step1-0.1) > 1e-4 {
		t.Errorf("layer1 step %v want 0.1", step1)
	}
	if math.Abs(step2-0.001) > 1e-6 {
		t.Errorf("layer2 step %v want 0.001", step2)
	}
}

func TestSGDLARSZeroWeightsFallsBack(t *testing.T) {
	// ‖w‖ = 0 (fresh bias): LARS must not zero the step entirely; it falls
	// back to the plain LR.
	w := []float32{0}
	g := []float32{1}
	s := &SGD{LARS: true, Trust: 0.01}
	s.Step([]nn.Param{makeParam(w, g)}, 0.5)
	if w[0] != -0.5 {
		t.Errorf("w = %v, want -0.5 (plain step)", w[0])
	}
}

func TestSGDLARSDefaultTrust(t *testing.T) {
	w := []float32{1}
	g := []float32{1}
	s := &SGD{LARS: true} // Trust defaults to 0.001
	s.Step([]nn.Param{makeParam(w, g)}, 1)
	if math.Abs(float64(1-w[0])-0.001) > 1e-6 {
		t.Errorf("step %v want 0.001", 1-w[0])
	}
}
