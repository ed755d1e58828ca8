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
		var wv, gv tensor.VecView
		nn.WeightViewOf(m.Params(), &wv)
		nn.GradViewOf(m.Params(), &gv)
		w := make([]float32, n)
		wv.CopyTo(w)
		// Perturb and copy back.
		w2 := append([]float32(nil), w...)
		for i := range w2 {
			w2[i] += 1
		}
		wv.CopyFrom(w2)
		w3 := make([]float32, n)
		wv.CopyTo(w3)
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
		gv.CopyFrom(g)
		g2 := make([]float32, n)
		gv.CopyTo(g2)
		for i := range g2 {
			if g2[i] != g[i] {
				t.Fatalf("%s: grad round trip failed at %d", fam, i)
			}
		}
		m.ZeroGrads()
		gv.CopyTo(g2)
		for i := range g2 {
			if g2[i] != 0 {
				t.Fatalf("%s: ZeroGrads left %v at %d", fam, g2[i], i)
			}
		}
	}
}

// stateTensors is the state layout's oracle, written against the layer
// types: batch-norm's running mean then variance, a residual block's inner
// stack then its projection, layers in order.
func stateTensors(layers []nn.Layer) [][]float32 {
	var st [][]float32
	for _, l := range layers {
		switch l := l.(type) {
		case *nn.BatchNorm2D:
			st = append(st, l.RunMean, l.RunVar)
		case *nn.Residual:
			st = append(st, stateTensors(l.Inner)...)
			st = append(st, stateTensors(l.Proj)...)
		}
	}
	return st
}

// TestViewsFollowParamsOrder: for every family the weight, gradient and state
// views are the concatenation of p.W, p.G and the state tensors in Params()
// order; any SliceView is that range of it; copying out and back in changes
// nothing, and copying in lands in the tensors.
func TestViewsFollowParamsOrder(t *testing.T) {
	for _, fam := range Families() {
		m := buildReduced(t, fam)
		var ws, gs, st [][]float32
		for _, p := range m.Params() {
			ws, gs = append(ws, p.W), append(gs, p.G)
		}
		if c, ok := m.(*classifier); ok {
			st = stateTensors(c.net.Layers)
		}
		var weights, grads, state tensor.VecView
		nn.WeightViewOf(m.Params(), &weights)
		nn.GradViewOf(m.Params(), &grads)
		state.Reset(m.State())
		if fam == "vgg16" || fam == "resnet20" {
			if state.Len() == 0 {
				t.Fatalf("%s: no batch-norm state", fam)
			}
		} else if state.Len() != 0 {
			t.Fatalf("%s: %d state values", fam, state.Len())
		}
		rng := tensor.NewRNG(7)
		for _, c := range []struct {
			what    string
			view    *tensor.VecView
			tensors [][]float32
		}{{"weights", &weights, ws}, {"grads", &grads, gs}, {"state", &state, st}} {
			// Distinct values everywhere, written through the tensors.
			for _, x := range c.tensors {
				rng.NormVec(x, 0, 1)
			}
			concat := func() []float32 {
				var flat []float32
				for _, x := range c.tensors {
					flat = append(flat, x...)
				}
				return flat
			}
			want := concat()
			n := len(want)
			if c.view.Len() != n {
				t.Fatalf("%s %s: view holds %d values, tensors %d", fam, c.what, c.view.Len(), n)
			}
			var sub tensor.VecView
			for i := 0; i <= 50 && n > 0; i++ {
				lo, hi := rng.Intn(n), rng.Intn(n+1)
				if i == 0 {
					lo, hi = 0, n
				}
				if lo > hi {
					lo, hi = hi, lo
				}
				got := make([]float32, hi-lo)
				c.view.SliceView(lo, hi, &sub).CopyTo(got)
				for j := range got {
					if got[j] != want[lo+j] {
						t.Fatalf("%s %s: SliceView(%d,%d)[%d] = %v, want %v", fam, c.what, lo, hi, j, got[j], want[lo+j])
					}
				}
			}
			x := make([]float32, n)
			c.view.CopyTo(x)
			c.view.CopyFrom(x)
			for i, v := range concat() {
				if v != want[i] {
					t.Fatalf("%s %s: copy out and back in changed element %d", fam, c.what, i)
				}
			}
			for i := range x {
				x[i] = float32(i)
			}
			c.view.CopyFrom(x)
			for i, v := range concat() {
				if v != float32(i) {
					t.Fatalf("%s %s: CopyFrom left %v at %d", fam, c.what, v, i)
				}
			}
		}
	}
}

// TestCheckpointRoundTripEveryFamily: the flattened weights a snapshot
// carries, copied out of one model through its weight view, load every tensor
// into another by position — including the tensors that share a name with an
// earlier one (vgg16's and resnet20's same-shaped layers).
func TestCheckpointRoundTripEveryFamily(t *testing.T) {
	for _, fam := range Families() {
		src := buildReduced(t, fam)
		dst, err := New(Config{Family: fam, Seed: 2, Reduced: true})
		if err != nil {
			t.Fatal(err)
		}
		var sv, dv tensor.VecView
		nn.WeightViewOf(src.Params(), &sv)
		nn.WeightViewOf(dst.Params(), &dv)
		flat := make([]float32, src.NumParams())
		sv.CopyTo(flat)
		dv.CopyFrom(flat)
		for i, p := range src.Params() {
			for j, v := range p.W {
				if dst.Params()[i].W[j] != v {
					t.Fatalf("%s: tensor %d %s differs at %d after load", fam, i, p.Name, j)
				}
			}
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	a := buildReduced(t, "resnet20")
	b := buildReduced(t, "resnet20")
	for i, p := range a.Params() {
		for j, v := range p.W {
			if b.Params()[i].W[j] != v {
				t.Fatal("same seed must give identical weights")
			}
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

// The training step does not take the network's input gradient, so the
// bottom layer (a Conv2D on vgg16 and resnet20, a Linear on fnn3) forms only
// its parameter gradients. Every parameter gradient of Step and of
// StepInterleaved must still be Network.Backward's, bit for bit: skipping any
// input gradient above the bottom one would starve the layers below it.
func TestStepSkipsBottomInputGradientBitwise(t *testing.T) {
	for _, fam := range []string{"fnn3", "vgg16", "resnet20"} {
		build := func() *classifier { return buildReduced(t, fam).(*classifier) }
		ref := build()
		in := ref.net.Layers[0]
		var shape nn.Shape
		switch l := in.(type) {
		case *nn.Conv2D:
			shape = l.In
		case *nn.Linear:
			shape = nn.Shape{C: 1, H: 1, W: l.InF}
		default:
			t.Fatalf("%s: bottom layer %s", fam, in.Name())
		}
		b := classificationBatch(shape, 10, 16, 41)
		ref.ZeroGrads()
		logits := ref.net.Forward(b.X, true)
		_, dlogits := ref.ce.Loss(logits, b.Labels)
		if dx := ref.net.Backward(dlogits); dx.Rows != 16 || dx.Cols != shape.Size() {
			t.Fatalf("%s: Network.Backward returned a %dx%d input gradient", fam, dx.Rows, dx.Cols)
		}
		for name, step := range map[string]func(m Model){
			"Step":            func(m Model) { m.Step(b) },
			"StepInterleaved": func(m Model) { m.StepInterleaved(b, func(int) {}) },
		} {
			m := build()
			m.ZeroGrads()
			step(m)
			for i, p := range m.Params() {
				want := ref.Params()[i].G
				for j := range want {
					if math.Float32bits(p.G[j]) != math.Float32bits(want[j]) {
						t.Fatalf("%s %s: %s[%d] = %v, Network.Backward gives %v", fam, name, p.Name, j, p.G[j], want[j])
					}
				}
			}
		}
	}
}

// StepMACs from the layer shapes, against the products written out by hand
// for the reduced fnn3 (64→64→48→32→10, the bottom layer without an input
// gradient) and the reduced lstm (vocab 64, embed 16, hidden 32, one layer).
func TestStepMACs(t *testing.T) {
	fnn, err := New(Config{Family: "fnn3", Seed: 1, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	fwd := int64(n * (64*64 + 64*48 + 48*32 + 32*10))
	dx := int64(n * (64*48 + 48*32 + 32*10))
	if got, want := StepMACs(fnn, Batch{X: tensor.NewMat(n, 64)}), 2*fwd+dx; got != want {
		t.Errorf("fnn3: %d multiply-adds, want %d", got, want)
	}

	lstm, err := New(Config{Family: "lstm", Seed: 1, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([][]int, n)
	for i := range tokens {
		tokens[i] = make([]int, 13) // 12 predicted positions
	}
	const T, H = 12, 32
	proj := int64(T * n * H * 64)
	input := int64(T * n * 16 * 4 * H)
	recur := int64(n * H * 4 * H)
	want := 3*proj + 3*input + (T+T+T-1)*recur
	if got := StepMACs(lstm, Batch{Tokens: tokens}); got != want {
		t.Errorf("lstm: %d multiply-adds, want %d", got, want)
	}
}
