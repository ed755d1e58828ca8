package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"a2sgd/internal/data"
	"a2sgd/internal/models"
	"a2sgd/internal/nn"
	"a2sgd/internal/tensor"
)

// PaperBatch is the per-worker batch of the paper-scale rung: one worker,
// 16 samples (sequences of 12 predicted tokens for the LSTM).
const PaperBatch = 16

// paperSeqLen is the token count of one LSTM sample: 12 predicted
// positions and the token before them.
const paperSeqLen = 13

// paperMinSteps and paperMinTime bound how long a family is stepped: at
// least paperMinSteps timed steps and at least paperMinTime of them, so the
// fast families get more samples and the slow ones (seconds per step)
// stop at the minimum.
const (
	paperMinSteps = 4
	paperMinTime  = time.Second
)

// PaperStep is one Table 1 family's training step at paper scale
// (`paper/step-<family>`): the fastest of Steps timed Step calls on one
// fixed batch after a warm-up step, the step's matrix multiply-adds from
// the layer shapes (models.StepMACs), and the rate they imply.
type PaperStep struct {
	Name          string  `json:"name"`
	Params        int     `json:"params"`
	Batch         int     `json:"batch"`
	Steps         int     `json:"steps"`
	FastestSec    float64 `json:"fastest_s"`
	MACs          int64   `json:"macs"`
	GMACPerSec    float64 `json:"gmac_per_s"`
	AllocsPerStep float64 `json:"allocs_per_step"` // over the timed steps
}

// PaperWorkspace is one family's memory at paper scale
// (`paper/workspace-<family>`): the live heap once the model and a batch
// exist, and again after a step, whose difference is what the layers keep
// between steps — workspaces and tapes — per sample of the batch.
type PaperWorkspace struct {
	Name           string  `json:"name"`
	Batch          int     `json:"batch"`
	ModelBytes     uint64  `json:"model_bytes"`
	StepBytes      uint64  `json:"step_bytes"`
	BytesPerSample float64 `json:"bytes_per_sample"`
}

// PaperScaleReport is one run of the paper-scale rung, the payload of
// BENCH_paperscale.json.
type PaperScaleReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	Steps      []PaperStep      `json:"steps"`
	Workspaces []PaperWorkspace `json:"workspaces"`
}

// PaperScale steps every Table 1 family built at paper scale (Reduced:
// false) with one worker and a batch of PaperBatch on synthetic inputs of
// the paper's shapes — 28×28 MNIST-like images for fnn3, 32×32 CIFAR-like
// ones for vgg16 and resnet20, a 10 000-token vocabulary for lstm — and
// reports each step's time, multiply-adds and workspace. The families run
// one at a time, so the heap holds one paper-scale model at once (the
// lstm's weights and gradients alone are about 0.5 GB).
func PaperScale(w io.Writer) (*PaperScaleReport, error) {
	rep := &PaperScaleReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	fmt.Fprintf(w, "paper scale, one worker, batch %d, GOMAXPROCS %d\n", PaperBatch, rep.GOMAXPROCS)
	fmt.Fprintf(w, "%-10s %12s %7s %12s %14s %10s %10s %14s %12s\n",
		"family", "params", "steps", "fastest_s", "macs", "GMAC/s", "allocs", "workspace_MB", "B/sample")
	for _, fam := range models.Families() {
		st, ws, err := paperFamily(fam)
		if err != nil {
			return nil, err
		}
		rep.Steps = append(rep.Steps, st)
		rep.Workspaces = append(rep.Workspaces, ws)
		fmt.Fprintf(w, "%-10s %12d %7d %12.4f %14d %10.2f %10.1f %14.1f %12.0f\n",
			fam, st.Params, st.Steps, st.FastestSec, st.MACs, st.GMACPerSec, st.AllocsPerStep,
			float64(ws.StepBytes-ws.ModelBytes)/(1<<20), ws.BytesPerSample)
	}
	return rep, nil
}

// paperBatch draws one paper-shaped batch for fam.
func paperBatch(fam string) (models.Batch, error) {
	const seed = 1
	rng := tensor.NewRNG(seed)
	switch fam {
	case "fnn3":
		return data.NewImages(data.MNISTLike, nn.Shape{C: 1, H: 28, W: 28}, 10, 0.6, seed).Sample(rng, PaperBatch), nil
	case "vgg16", "resnet20":
		return data.NewImages(data.CIFARLike, nn.Shape{C: 3, H: 32, W: 32}, 10, 0.5, seed).Sample(rng, PaperBatch), nil
	case "lstm":
		return data.NewText(10_000, seed).Sample(rng, PaperBatch, paperSeqLen), nil
	}
	return models.Batch{}, fmt.Errorf("bench: no paper-scale inputs for %q", fam)
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func paperFamily(fam string) (PaperStep, PaperWorkspace, error) {
	base := liveHeap()
	m, err := models.New(models.Config{Family: fam, Seed: 1, Reduced: false})
	if err != nil {
		return PaperStep{}, PaperWorkspace{}, err
	}
	b, err := paperBatch(fam)
	if err != nil {
		return PaperStep{}, PaperWorkspace{}, err
	}
	built := liveHeap() - base
	step := func() {
		m.ZeroGrads()
		m.Step(b)
	}
	step() // the warm-up: every workspace grows to this batch
	stepped := liveHeap() - base

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fastest := time.Duration(1<<63 - 1)
	var n int
	var total time.Duration
	for n < paperMinSteps || total < paperMinTime {
		start := time.Now()
		step()
		d := time.Since(start)
		fastest = min(fastest, d)
		total += d
		n++
	}
	runtime.ReadMemStats(&after)
	macs := models.StepMACs(m, b)
	st := PaperStep{
		Name: "paper/step-" + fam, Params: m.NumParams(), Batch: PaperBatch, Steps: n,
		FastestSec: fastest.Seconds(), MACs: macs, GMACPerSec: float64(macs) / fastest.Seconds() / 1e9,
		AllocsPerStep: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
	ws := PaperWorkspace{
		Name: "paper/workspace-" + fam, Batch: PaperBatch, ModelBytes: built, StepBytes: stepped,
		BytesPerSample: float64(stepped-built) / PaperBatch,
	}
	runtime.KeepAlive(m)
	return st, ws, nil
}
