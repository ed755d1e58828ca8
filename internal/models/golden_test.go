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
// change must reproduce them exactly on amd64. Three re-recordings since:
// vgg16 and resnet20 from step1 on, when the optimizer stopped handing
// same-named tensors one shared momentum buffer — the script's updates run
// momentum 0.9, so every phase after the first update reads other weights
// (fnn3, lstm and every step0 did not move: no shared names, no update yet);
// then every phase of every family, when the products that accumulated in
// float64 (the dense and LSTM forwards, the conv weight gradient) moved to
// Gemm's one float32 order; then every phase of every family again, when
// Gemm's terms became fused multiply-adds with one rounding each (FMA32).
// The digests before the float32 move, in script order:
//
//	fnn3      1e1d5b7843a5f042 bae644cb096c5eb7 2f6959287d570bee 4b77881f279823ab 75dd85da52517fe8 b48fbfc5baca4429 4933131fc4d9699a 27c7f314bd89475d 8be262b600e8f111
//	vgg16     b040acc1194078c8 0b5e980d5c17e99e 90f9b45abb114b41 b946dad90a997944 5050e7d7a3ba7bc5 40684cceb65b09c1 fadc3d5cc017aad8 e48a61c05af34a6e 771c549ca6efb6d6
//	resnet20  96d9741d45e2faa2 1131d3bc6cdfd7c5 279984816d85c4f7 f6bb89e48f3226df 79dffc3d8aef9d52 3420069115b38f46 a71fdc601cbd85df 87b3bd1dbadf951e 2d622570d51e143b
//	lstm      e133d9f7453d88a1 2def6d85a25024e1 d66e4f44dea8d4a4 94dc1f56a7934b76 a3a4acaae244ec7c e55d898ebc42b832 39ac99ed7cba13e3 45a6a9fd7a1d2ac4 ed120881878c3188
//
// and before the fused one:
//
//	fnn3      9fcd0a80d14efffe 3de3bcced9b4461f 4f22100e4ca6ccc1 00572c54aed83275 ba803a0a551cdfc1 9ee6fbe0e8d49d9e d4c6bbd4eb7bd19f bccc75e79bca19b0 1513fc9d3cb97fbb
//	vgg16     b47bdc01e0d353ff be6c06a04069610f 979d3c21f56b8051 5e5b41abebf1d34d ee2f4504e38a832d 66e4a31229229811 9fda99567f3a4efa c3fe9b67b1d98a7f 9b38e000717a4e11
//	resnet20  1ac7f177371eedcb 8330baaf916c7816 bfdb66bb552c0d42 ea65ebf41bb6947e 64dd50934d3d2453 3f5b011e61cae5ae ba13b681bf457abd af83ade4eace7b9a f857abbf93d16b22
//	lstm      f81c4e03021938bc 484af7ea961f695e 871dbbded3b6d664 af58f9d4e4f87397 5011e44d135be7ac 696f6d32c0cd57d1 7aef49fb25f596c1 24212a27ff5b60f8 b573c98c520cfa08
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
		"step0:c75e0b903dc9b185", "step1:30f9d866e611c9f7", "step2:e3d9adef17436d73",
		"interleaved:758d4f39daaa3183", "train16:3801acdd378efcaf", "eval64:5e12081587ea1d8c",
		"train16b:29d63dab6fa474b4", "train8:c15a34ac8240eaed", "state:181a01b2f9f42eac",
	},
	"vgg16": {
		"step0:f3df4f24cf328663", "step1:728466fafecc6d12", "step2:f151b8bc53c0fdbe",
		"interleaved:1379ee6aa1b49af1", "train16:e8bc78f6cb56c503", "eval64:1625caa70201e4d6",
		"train16b:f5489fbfe7172f98", "train8:61b995aa1a8e2c56", "state:b53db284da195cd6",
	},
	"resnet20": {
		"step0:aeb384507f94a357", "step1:9b7bd40232e9bb0d", "step2:c16517b087bf2cd4",
		"interleaved:0de398bceb2787dd", "train16:2413676ce650074a", "eval64:21b366766c1bc116",
		"train16b:7a6ad8bc92352271", "train8:63ad40513e632395", "state:0dc3bfffd5453337",
	},
	"lstm": {
		"step0:9184163bba99dc2e", "step1:e15ceb6062a44bb3", "step2:4ca6420892355617",
		"interleaved:008c52397d263003", "train16:a6951076f1eb4ba0", "eval64:7ba881e1d52f93f5",
		"train16b:1aac92226a67aa58", "train8:5a79abad26745b46", "state:b20b7c36f2e60fc6",
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
