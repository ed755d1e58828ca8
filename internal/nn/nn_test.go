package nn

import (
	"math"
	"strings"
	"testing"

	"a2sgd/internal/tensor"
)

func TestNetworkPlumbing(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewNetwork(
		NewLinear(rng, 4, 3), NewReLU(),
		NewLinear(rng, 3, 2),
	)
	wantParams := 4*3 + 3 + 3*2 + 2
	if net.NumParams() != wantParams {
		t.Fatalf("NumParams = %d, want %d", net.NumParams(), wantParams)
	}
	// Copy out → perturb → copy in round trip through the weight view.
	var wv tensor.VecView
	WeightViewOf(net.Params(), &wv)
	w := make([]float32, wantParams)
	wv.CopyTo(w)
	for i := range w {
		w[i] = float32(i)
	}
	wv.CopyFrom(w)
	w2 := make([]float32, wantParams)
	wv.CopyTo(w2)
	for i := range w2 {
		if w2[i] != float32(i) {
			t.Fatal("param round trip")
		}
	}
	// Gradient plumbing with length validation.
	g := make([]float32, wantParams)
	var gv tensor.VecView
	GradViewOf(net.Params(), &gv).CopyFrom(g)
	gv.CopyTo(g)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("copying the gradient view out with the wrong length should panic")
			}
		}()
		gv.CopyTo(make([]float32, wantParams+1))
	}()
}

func TestNetworkForwardBackwardShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewNetwork(NewLinear(rng, 5, 4), NewReLU(), NewLinear(rng, 4, 3))
	x := tensor.NewMat(7, 5)
	rng.NormVec(x.Data, 0, 1)
	out := net.Forward(x, true)
	if out.Rows != 7 || out.Cols != 3 {
		t.Fatalf("forward shape %dx%d", out.Rows, out.Cols)
	}
	dout := tensor.NewMat(7, 3)
	rng.NormVec(dout.Data, 0, 1)
	dx := net.Backward(dout)
	if dx.Rows != 7 || dx.Cols != 5 {
		t.Fatalf("backward shape %dx%d", dx.Rows, dx.Cols)
	}
	net.ZeroGrads()
	for _, p := range net.Params() {
		for _, v := range p.G {
			if v != 0 {
				t.Fatal("ZeroGrads failed")
			}
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	in := Shape{C: 1, H: 2, W: 2}
	b := NewBatchNorm2D(in)
	rng := tensor.NewRNG(5)
	// Train on shifted data so the running stats move.
	for i := 0; i < 50; i++ {
		x := tensor.NewMat(8, in.Size())
		rng.NormVec(x.Data, 5, 2)
		b.Forward(x, true)
	}
	if math.Abs(float64(b.RunMean[0])-5) > 0.5 {
		t.Errorf("running mean %v, want ≈5", b.RunMean[0])
	}
	if math.Abs(float64(b.RunVar[0])-4) > 1.0 {
		t.Errorf("running var %v, want ≈4", b.RunVar[0])
	}
	// Eval normalizes with the running stats: a batch at the training
	// distribution maps to ≈ N(0,1).
	x := tensor.NewMat(64, in.Size())
	rng.NormVec(x.Data, 5, 2)
	out := b.Forward(x, false)
	var sum, sq float64
	for _, v := range out.Data {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	n := float64(len(out.Data))
	mean := sum / n
	if math.Abs(mean) > 0.2 {
		t.Errorf("eval mean %v", mean)
	}
	if v := sq/n - mean*mean; math.Abs(v-1) > 0.3 {
		t.Errorf("eval var %v", v)
	}
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	rng := tensor.NewRNG(7)
	r := NewResidual("bad", NewLinear(rng, 4, 3)) // 4 → 3 cannot shortcut
	x := tensor.NewMat(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Forward(x, true)
}

func TestSoftmaxCEValidation(t *testing.T) {
	logits := tensor.NewMat(2, 3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label count mismatch should panic")
			}
		}()
		SoftmaxCE(logits, []int{0})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label out of range should panic")
			}
		}()
		SoftmaxCE(logits, []int{0, 5})
	}()
	// Uniform logits → loss = ln(3).
	loss, _ := SoftmaxCE(logits, []int{0, 1})
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Errorf("uniform loss %v, want ln 3", loss)
	}
}

func TestSoftmaxCEStability(t *testing.T) {
	// Huge logits must not overflow.
	logits := tensor.MatFrom(1, 3, []float32{1e4, 1e4 - 5, -1e4})
	loss, d := SoftmaxCE(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss %v", loss)
	}
	if tensor.HasNaNOrInf(d.Data) {
		t.Fatal("gradient has NaN/Inf")
	}
}

func TestAccuracyAndPerplexity(t *testing.T) {
	logits := tensor.MatFrom(3, 2, []float32{1, 0, 0, 1, 2, 1})
	if got := Accuracy(logits, []int{0, 1, 0}); got != 1 {
		t.Errorf("accuracy %v", got)
	}
	if got := Accuracy(logits, []int{1, 0, 1}); got != 0 {
		t.Errorf("accuracy %v", got)
	}
	if Accuracy(tensor.NewMat(0, 2), nil) != 0 {
		t.Error("empty accuracy")
	}
	if math.Abs(Perplexity(math.Log(50))-50) > 1e-9 {
		t.Error("perplexity")
	}
}

func TestLinearShapeValidation(t *testing.T) {
	l := NewLinear(tensor.NewRNG(1), 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input width should panic")
		}
	}()
	l.Forward(tensor.NewMat(1, 5), false)
}

func TestConv2DShapeValidation(t *testing.T) {
	c := NewConv2D(tensor.NewRNG(1), Shape{C: 1, H: 4, W: 4}, 2, 3, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size should panic")
		}
	}()
	c.Forward(tensor.NewMat(1, 17), false)
}

func TestMaxPoolIndivisiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMaxPool2D(Shape{C: 1, H: 5, W: 4}, 2)
}

func TestLSTMLMValidation(t *testing.T) {
	m := NewLSTMLM(tensor.NewRNG(1), 8, 4, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short sequence should panic")
			}
		}()
		m.Forward([][]int{{1}}, false)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-vocab token should panic")
			}
		}()
		m.Forward([][]int{{1, 99}}, false)
	}()
	if m.Forward(nil, false) != 0 {
		t.Error("empty batch loss should be 0")
	}
}

// A ragged batch is refused before Forward writes anything: a later row
// shorter or longer than row 0, or a bad token anywhere (the last position
// is only ever a label), panics with the row named, and the tapes of the
// training Forward before it are still there for its Backward.
func TestLSTMLMRaggedTokensPanicBeforeTapes(t *testing.T) {
	build := func() *LSTMLM { return NewDeepLSTMLM(tensor.NewRNG(2), 8, 4, 4, 2) }
	good := [][]int{{1, 2, 3, 4}, {5, 6, 7, 0}, {2, 2, 2, 2}}
	want := build()
	want.Forward(good, true)
	want.Backward()

	m := build()
	m.Forward(good, true)
	for name, tc := range map[string]struct {
		tokens [][]int
		msg    string
	}{
		"shorter row":    {[][]int{{1, 2, 3, 4}, {5, 6, 7, 0}, {2, 2}}, "row 2 has length 2"},
		"longer row":     {[][]int{{1, 2, 3, 4}, {5, 6, 7, 0, 1}, {2, 2, 2, 2}}, "row 1 has length 5"},
		"bad last label": {[][]int{{1, 2, 3, 4}, {5, 6, 7, 8}, {2, 2, 2, 2}}, "row 1, position 3: token 8"},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, tc.msg) {
					t.Errorf("%s: panic %v, want one containing %q", name, r, tc.msg)
				}
			}()
			m.Forward(tc.tokens, true)
		}()
	}
	m.Backward()
	for i, p := range m.Params() {
		bitsEqual(t, p.Name, p.G, want.Params()[i].G)
	}
}

func TestInitializers(t *testing.T) {
	rng := tensor.NewRNG(9)
	w := make([]float32, 10000)
	InitHe(rng, w, 100)
	var sq float64
	for _, v := range w {
		sq += float64(v) * float64(v)
	}
	std := math.Sqrt(sq / float64(len(w)))
	if math.Abs(std-math.Sqrt(2.0/100)) > 0.01 {
		t.Errorf("He std %v", std)
	}
	InitXavier(rng, w, 50, 50)
	sq = 0
	for _, v := range w {
		sq += float64(v) * float64(v)
	}
	std = math.Sqrt(sq / float64(len(w)))
	if math.Abs(std-math.Sqrt(2.0/100)) > 0.01 {
		t.Errorf("Xavier std %v", std)
	}
	InitUniform(rng, w, 0.5)
	for _, v := range w {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestConvOutShape(t *testing.T) {
	c := NewConv2D(tensor.NewRNG(1), Shape{C: 3, H: 32, W: 32}, 16, 3, 1, 1)
	if got := c.OutShape(); got != (Shape{C: 16, H: 32, W: 32}) {
		t.Errorf("same-pad conv shape %+v", got)
	}
	c2 := NewConv2D(tensor.NewRNG(1), Shape{C: 3, H: 32, W: 32}, 16, 3, 2, 1)
	if got := c2.OutShape(); got != (Shape{C: 16, H: 16, W: 16}) {
		t.Errorf("strided conv shape %+v", got)
	}
	if (Shape{C: 2, H: 3, W: 4}).Size() != 24 {
		t.Error("shape size")
	}
}

// A known convolution: identity 1×1 kernel must reproduce the input.
func TestConv2DIdentityKernel(t *testing.T) {
	in := Shape{C: 1, H: 3, W: 3}
	c := NewConv2D(tensor.NewRNG(1), in, 1, 1, 1, 0)
	c.W[0] = 1
	c.B[0] = 0
	x := tensor.NewMat(1, 9)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	out := c.Forward(x, false)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatalf("identity conv differs at %d: %v", i, out.Data[i])
		}
	}
}

// A known 3×3 sum kernel on a constant image: interior outputs = 9, corners
// = 4 (zero padding).
func TestConv2DSumKernel(t *testing.T) {
	in := Shape{C: 1, H: 3, W: 3}
	c := NewConv2D(tensor.NewRNG(1), in, 1, 3, 1, 1)
	for i := range c.W {
		c.W[i] = 1
	}
	c.B[0] = 0
	x := tensor.NewMat(1, 9)
	tensor.Fill(x.Data, 1)
	out := c.Forward(x, false)
	want := []float32{4, 6, 4, 6, 9, 6, 4, 6, 4}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("sum conv [%d] = %v want %v", i, out.Data[i], want[i])
		}
	}
}
