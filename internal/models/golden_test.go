package models_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"a2sgd/internal/data"
	"a2sgd/internal/models"
	"a2sgd/internal/nn"
	"a2sgd/internal/optim"
	"a2sgd/internal/tensor"
)

// The golden digests pin every family's training arithmetic to the last bit:
// an FNV-1a hash of the loss bits and the flattened gradient after each phase
// of a fixed script. They were recorded from the row-AXPY / scalar-Dot matmuls
// and the allocate-per-call layers this repository had before the strided
// GEMM and the layer workspaces, and any kernel, build tag or buffer-reuse
// change must reproduce them exactly on amd64. Two re-recordings since:
// vgg16 and resnet20 from step1 on, when the optimizer stopped handing
// same-named tensors one shared momentum buffer — the script's updates run
// momentum 0.9, so every phase after the first update reads other weights
// (fnn3, lstm and every step0 did not move: no shared names, no update yet);
// then every phase of every family, when the products that accumulated in
// float64 (the dense and LSTM forwards, the conv weight gradient) moved to
// Gemm's one float32 order. The digests before that move, in script order:
//
//	fnn3      1e1d5b7843a5f042 bae644cb096c5eb7 2f6959287d570bee 4b77881f279823ab 75dd85da52517fe8 b48fbfc5baca4429 4933131fc4d9699a 27c7f314bd89475d 8be262b600e8f111
//	vgg16     b040acc1194078c8 0b5e980d5c17e99e 90f9b45abb114b41 b946dad90a997944 5050e7d7a3ba7bc5 40684cceb65b09c1 fadc3d5cc017aad8 e48a61c05af34a6e 771c549ca6efb6d6
//	resnet20  96d9741d45e2faa2 1131d3bc6cdfd7c5 279984816d85c4f7 f6bb89e48f3226df 79dffc3d8aef9d52 3420069115b38f46 a71fdc601cbd85df 87b3bd1dbadf951e 2d622570d51e143b
//	lstm      e133d9f7453d88a1 2def6d85a25024e1 d66e4f44dea8d4a4 94dc1f56a7934b76 a3a4acaae244ec7c e55d898ebc42b832 39ac99ed7cba13e3 45a6a9fd7a1d2ac4 ed120881878c3188
//
// The script is longer than one step on purpose. A freshly allocated matrix
// is zero, and the old layers leaned on that (im2col padding, ReLU output,
// the pools' and col2im's input gradients); a reused workspace that is
// neither fully overwritten nor cleared is only wrong from its second use
// on, and only shows when the batch changes between uses. So: three
// ZeroGrads+Step rounds on fresh batches with an optimizer update between
// them, an interleaved step, then train(16) → Eval(64) → train(16) →
// train(8) so that a larger evaluation batch and a smaller training batch
// both pass through every workspace.
var goldenDigests = map[string][]string{
	"fnn3": {
		"step0:9fcd0a80d14efffe", "step1:3de3bcced9b4461f", "step2:4f22100e4ca6ccc1",
		"interleaved:00572c54aed83275", "train16:ba803a0a551cdfc1", "eval64:9ee6fbe0e8d49d9e",
		"train16b:d4c6bbd4eb7bd19f", "train8:bccc75e79bca19b0", "state:1513fc9d3cb97fbb",
	},
	"vgg16": {
		"step0:b47bdc01e0d353ff", "step1:be6c06a04069610f", "step2:979d3c21f56b8051",
		"interleaved:5e5b41abebf1d34d", "train16:ee2f4504e38a832d", "eval64:66e4a31229229811",
		"train16b:9fda99567f3a4efa", "train8:c3fe9b67b1d98a7f", "state:9b38e000717a4e11",
	},
	"resnet20": {
		"step0:1ac7f177371eedcb", "step1:8330baaf916c7816", "step2:bfdb66bb552c0d42",
		"interleaved:ea65ebf41bb6947e", "train16:64dd50934d3d2453", "eval64:3f5b011e61cae5ae",
		"train16b:ba13b681bf457abd", "train8:af83ade4eace7b9a", "state:f857abbf93d16b22",
	},
	"lstm": {
		"step0:f81c4e03021938bc", "step1:484af7ea961f695e", "step2:871dbbded3b6d664",
		"interleaved:af58f9d4e4f87397", "train16:5011e44d135be7ac", "eval64:696f6d32c0cd57d1",
		"train16b:7aef49fb25f596c1", "train8:24212a27ff5b60f8", "state:b573c98c520cfa08",
	},
}

// digest is an FNV-1a hash over 64-bit words.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) word(w uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	d.h.Write(b[:])
}

func (d digest) f64(v float64) { d.word(math.Float64bits(v)) }

func (d digest) vec(v []float32) {
	for _, x := range v {
		d.word(uint64(math.Float32bits(x)))
	}
}

// goldenScript runs the fixed script on one family and returns one
// "phase:digest" string per phase.
func goldenScript(t *testing.T, fam string) []string {
	t.Helper()
	m, err := models.New(models.Config{Family: fam, Seed: 1, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	img, txt, err := data.ForFamily(fam, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	sample := func(n int) models.Batch {
		if img != nil {
			return img.Sample(rng, n)
		}
		return txt.Sample(rng, n, 12)
	}
	opt := optim.NewSGD(0.9, 0)
	var weightView, gradView, stateView tensor.VecView
	nn.WeightViewOf(m.Params(), &weightView)
	nn.GradViewOf(m.Params(), &gradView)
	stateView.Reset(m.State())
	grads := make([]float32, m.NumParams())
	var out []string
	record := func(phase string, vals ...float64) {
		d := newDigest()
		for _, v := range vals {
			d.f64(v)
		}
		gradView.CopyTo(grads)
		d.vec(grads)
		out = append(out, fmt.Sprintf("%s:%016x", phase, d.h.Sum64()))
	}
	train := func(phase string, n int) {
		m.ZeroGrads()
		loss := m.Step(sample(n))
		record(phase, loss)
		opt.Step(m.Params(), 0.05)
	}

	train("step0", 16)
	train("step1", 16)
	train("step2", 16)

	m.ZeroGrads()
	var ready []float64
	loss := m.StepInterleaved(sample(16), func(lo int) { ready = append(ready, float64(lo)) })
	record("interleaved", append([]float64{loss}, ready...)...)
	opt.Step(m.Params(), 0.05)

	train("train16", 16)
	evalLoss, metric := m.Eval(sample(64))
	record("eval64", evalLoss, metric)
	train("train16b", 16)
	train("train8", 8)

	d := newDigest()
	params := make([]float32, m.NumParams())
	weightView.CopyTo(params)
	d.vec(params)
	state := make([]float32, stateView.Len())
	stateView.CopyTo(state)
	d.vec(state)
	out = append(out, fmt.Sprintf("state:%016x", d.h.Sum64()))
	return out
}

func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse a*b+c in the compiler's scalar code;
		// the digests pin the amd64 arithmetic (assembly and purego alike).
		t.Skip("golden digests are recorded on amd64")
	}
	for _, fam := range models.Families() {
		got := goldenScript(t, fam)
		want := goldenDigests[fam]
		if len(want) != len(got) {
			t.Errorf("%s: %d phases, %d recorded digests\n%q", fam, len(got), len(want), got)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: phase %d is %s, recorded %s", fam, i, got[i], want[i])
			}
		}
	}
}

// stepper builds fam with a fixed training batch and a larger fixed
// evaluation batch, and returns closures running Step (no ZeroGrads) and
// Eval on them.
func stepper(t *testing.T, fam string) (m models.Model, step, eval func()) {
	t.Helper()
	m, err := models.New(models.Config{Family: fam, Seed: 1, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	img, txt, err := data.ForFamily(fam, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	var tb, eb, ob models.Batch
	if img != nil {
		tb, eb, ob = img.Sample(rng, 16), img.Sample(rng, 64), img.Sample(rng, 37)
	} else {
		tb, eb, ob = txt.Sample(rng, 16, 12), txt.Sample(rng, 64, 12), txt.Sample(rng, 37, 12)
	}
	return m, func() { m.Step(tb) }, func() { m.Eval(eb); m.Eval(ob) }
}

// A warm training step allocates nothing, and neither does alternating it
// with evaluation batches, one larger than the training batch and one that
// is not a multiple of it (its last chunk is 5 samples): workspaces only
// grow, so the evaluation batches size them once and the training batch
// keeps fitting, and nothing — a convolution's pad masks included — is sized
// by the batch.
func TestStepSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; run without -race")
	}
	for _, fam := range models.Families() {
		m, step, eval := stepper(t, fam)
		train := func() {
			m.ZeroGrads()
			step()
		}
		train()
		if n := testing.AllocsPerRun(5, train); n != 0 {
			t.Errorf("%s: %v allocations per warm ZeroGrads+Step", fam, n)
		}
		eval()
		train()
		if n := testing.AllocsPerRun(5, func() { eval(); train() }); n != 0 {
			t.Errorf("%s: %v allocations per warm Eval+Step", fam, n)
		}
	}
}

// Step accumulates: two steps on one batch without ZeroGrads leave twice one
// step's gradient in EVERY tensor (to rounding — the second step adds to a
// non-zero accumulator). Linear weights used to be overwritten instead.
// Batch-norm's running statistics move between the two steps, but
// training-mode gradients only see the batch's own.
func TestGradientsAccumulateAcrossSteps(t *testing.T) {
	for _, fam := range models.Families() {
		m, step, _ := stepper(t, fam)
		once, twice := make([]float32, m.NumParams()), make([]float32, m.NumParams())
		var gradView tensor.VecView
		nn.GradViewOf(m.Params(), &gradView)
		m.ZeroGrads()
		step()
		gradView.CopyTo(once)
		step()
		gradView.CopyTo(twice)
		off := 0
		for _, p := range m.Params() {
			var scale, worst float64
			for i := range p.G {
				scale = math.Max(scale, math.Abs(float64(once[off+i])))
				worst = math.Max(worst, math.Abs(float64(twice[off+i])-2*float64(once[off+i])))
			}
			// The absolute floor is for convolution biases under a batch
			// norm: their true gradient is zero and what is stored is
			// rounding noise around 1e-8, which does not double.
			if worst > 1e-5*scale+1e-7 {
				t.Errorf("%s %s: two steps differ from 2× one step by %g (tensor scale %g)", fam, p.Name, worst, scale)
			}
			off += len(p.G)
		}
	}
}
