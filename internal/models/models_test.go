package models

import (
	"math"
	"testing"

	"a2sgd/internal/nn"
	"a2sgd/internal/optim"
	"a2sgd/internal/tensor"
)

func TestPaperParamCounts(t *testing.T) {
	want := map[string]int{
		"fnn3": 199_210, "vgg16": 14_728_266, "resnet20": 269_722, "lstm": 66_034_000,
	}
	for fam, n := range want {
		got, err := PaperParamCount(fam)
		if err != nil || got != n {
			t.Errorf("%s: got %d, %v", fam, got, err)
		}
	}
	if _, err := PaperParamCount("nope"); err == nil {
		t.Error("unknown family should error")
	}
	if len(Families()) != 4 {
		t.Error("Families should list 4 entries")
	}
}

func TestNewUnknownFamily(t *testing.T) {
	if _, err := New(Config{Family: "nope"}); err == nil {
		t.Error("unknown family should error")
	}
}

func buildReduced(t *testing.T, fam string) Model {
	t.Helper()
	m, err := New(Config{Family: fam, Seed: 1, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllFamiliesBuildReduced(t *testing.T) {
	for _, fam := range Families() {
		m := buildReduced(t, fam)
		if m.Name() != fam {
			t.Errorf("%s: name %s", fam, m.Name())
		}
		if m.NumParams() <= 0 {
			t.Errorf("%s: no params", fam)
		}
		if len(m.Params()) == 0 {
			t.Errorf("%s: empty params", fam)
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	for _, fam := range Families() {
		m := buildReduced(t, fam)
		n := m.NumParams()
		w := make([]float32, n)
		m.GatherParams(w)
		// Perturb and scatter back.
		w2 := append([]float32(nil), w...)
		for i := range w2 {
			w2[i] += 1
		}
		m.ScatterParams(w2)
		w3 := make([]float32, n)
		m.GatherParams(w3)
		for i := range w3 {
			if w3[i] != w[i]+1 {
				t.Fatalf("%s: param round trip failed at %d", fam, i)
			}
		}
		// Gradient plumbing.
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(i%7) - 3
		}
		var gv tensor.VecView
		m.GradView(0, n, &gv).CopyFrom(g)
		g2 := make([]float32, n)
		m.GatherGrads(g2)
		for i := range g2 {
			if g2[i] != g[i] {
				t.Fatalf("%s: grad round trip failed at %d", fam, i)
			}
		}
		m.ZeroGrads()
		m.GatherGrads(g2)
		for i := range g2 {
			if g2[i] != 0 {
				t.Fatalf("%s: ZeroGrads left %v at %d", fam, g2[i], i)
			}
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a := buildReduced(t, "resnet20")
	b := buildReduced(t, "resnet20")
	wa := make([]float32, a.NumParams())
	wb := make([]float32, b.NumParams())
	a.GatherParams(wa)
	b.GatherParams(wb)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("same seed must give identical weights")
		}
	}
}

func classificationBatch(shape nn.Shape, classes, n int, seed uint64) Batch {
	rng := tensor.NewRNG(seed)
	x := tensor.NewMat(n, shape.Size())
	labels := make([]int, n)
	// Strongly separable data: class mean c placed along distinct axes.
	for s := 0; s < n; s++ {
		c := rng.Intn(classes)
		labels[s] = c
		row := x.Row(s)
		rng.NormVec(row, 0, 0.3)
		row[c%len(row)] += 3
	}
	return Batch{X: x, Labels: labels}
}

// Training must reduce loss on every classification family — the substrate
// produces real learning, not noise.
func TestTrainingReducesLossClassifiers(t *testing.T) {
	shapes := map[string]nn.Shape{
		"fnn3":     {C: 1, H: 8, W: 8},
		"vgg16":    {C: 3, H: 16, W: 16},
		"resnet20": {C: 3, H: 8, W: 8},
	}
	for fam, shape := range shapes {
		m := buildReduced(t, fam)
		opt := optim.NewSGD(0.9, 0)
		batch := classificationBatch(shape, 10, 16, 5)
		first := 0.0
		var last float64
		for it := 0; it < 30; it++ {
			m.ZeroGrads()
			loss := m.Step(batch)
			if it == 0 {
				first = loss
			}
			last = loss
			opt.Step(m.Params(), 0.05)
		}
		if !(last < first*0.7) {
			t.Errorf("%s: loss %v -> %v (no learning)", fam, first, last)
		}
		if math.IsNaN(last) {
			t.Errorf("%s: loss became NaN", fam)
		}
		// Eval path runs and reports an accuracy in [0,1].
		loss, acc := m.Eval(batch)
		if loss < 0 || acc < 0 || acc > 1 {
			t.Errorf("%s: eval loss=%v acc=%v", fam, loss, acc)
		}
		if m.Metric() != MetricAccuracy {
			t.Errorf("%s: metric kind", fam)
		}
	}
}

func TestTrainingReducesLossLSTM(t *testing.T) {
	m := buildReduced(t, "lstm")
	opt := optim.NewSGD(0, 0)
	rng := tensor.NewRNG(9)
	// Highly predictable sequences: token i follows i-1 cyclically.
	mkBatch := func() Batch {
		toks := make([][]int, 8)
		for b := range toks {
			start := rng.Intn(64)
			seq := make([]int, 12)
			for i := range seq {
				seq[i] = (start + i) % 64
			}
			toks[b] = seq
		}
		return Batch{Tokens: toks}
	}
	// LSTM gradients are small (mean CE over B·T); like the paper's LR=22
	// for LSTM-PTB, a large rate is required.
	first, last := 0.0, 0.0
	for it := 0; it < 120; it++ {
		b := mkBatch()
		m.ZeroGrads()
		loss := m.Step(b)
		if it == 0 {
			first = loss
		}
		last = loss
		opt.Step(m.Params(), 5)
	}
	if !(last < first*0.5) {
		t.Errorf("lstm: loss %v -> %v", first, last)
	}
	_, ppl := m.Eval(mkBatch())
	if ppl >= 64 || ppl <= 1 {
		t.Errorf("perplexity %v out of meaningful range (vocab 64)", ppl)
	}
	if m.Metric() != MetricPerplexity {
		t.Error("metric kind")
	}
}

func TestBatchSize(t *testing.T) {
	b := Batch{X: tensor.NewMat(5, 3)}
	if b.Size() != 5 {
		t.Error("image batch size")
	}
	b = Batch{Tokens: make([][]int, 7)}
	if b.Size() != 7 {
		t.Error("token batch size")
	}
}

// Reduced parameter counts should be small enough for CPU training but the
// architecture should stay non-trivial.
func TestReducedScaleBounds(t *testing.T) {
	for _, fam := range Families() {
		m := buildReduced(t, fam)
		n := m.NumParams()
		if n < 1000 || n > 1_000_000 {
			t.Errorf("%s reduced scale has %d params", fam, n)
		}
	}
}

// Paper-scale architecture fidelity: the full-size builders must land on
// (or very near) Table 1's parameter counts.
func TestPaperScaleParamCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates paper-scale models")
	}
	cases := []struct {
		family string
		relTol float64 // |built − paper| / paper
	}{
		{"vgg16", 0.02},    // conv stack + BN + FC head of VGG-16 on 32×32
		{"resnet20", 0.02}, // 6n+2 residual stack, n=3, 16/32/64 with projections
		{"lstm", 0.001},    // 2-layer, 1500-hidden Zaremba-large PTB model
		{"fnn3", 0.001},    // widths solved to match Table 1 (223/88/45)
	}
	for _, c := range cases {
		paperN, err := PaperParamCount(c.family)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{Family: c.family, Seed: 1, Reduced: false})
		if err != nil {
			t.Fatal(err)
		}
		got := m.NumParams()
		rel := math.Abs(float64(got-paperN)) / float64(paperN)
		t.Logf("%s: built %d vs paper %d (%.3f%% off)", c.family, got, paperN, 100*rel)
		if rel > c.relTol {
			t.Errorf("%s: built %d params, paper %d (rel err %.3f > %.3f)",
				c.family, got, paperN, rel, c.relTol)
		}
	}
}
