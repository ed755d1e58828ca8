package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

// IterModel prices one training iteration at paper scale for every
// (family, algorithm, worker-count) cell: measured compression compute on a
// full-size gradient vector, plus α–β-modelled synchronization, plus a fixed
// per-family forward/backward cost that is identical across algorithms (the
// paper's GPUs are not reproducible; the constant cancels in every
// algorithm-vs-algorithm comparison).
type IterModel struct {
	Fabric netsim.Fabric
	// ParamScale divides the paper's parameter counts (1 = full scale;
	// tests use larger divisors to stay fast).
	ParamScale int
	// EncodeSpeedup calibrates the measured CPU compression time to the
	// paper's GPU substrate. The compression kernels (means, threshold
	// selection, quantization) are memory-bandwidth bound: a V100 streams
	// ~900 GB/s while this machine's cores stream ~15–20 GB/s, so the
	// default of 50 maps one to the other. The factor is identical for all
	// algorithms, so every algorithm-vs-algorithm ordering is measured, not
	// assumed; only the compute↔network balance is calibrated. Set to 1 to
	// price iterations on this machine's raw CPU speed instead.
	EncodeSpeedup float64

	// ComputeBase is the synthetic fwd/bwd seconds per family.
	ComputeBase map[string]float64
	// EncodeSec[family][algo] is the measured compression time.
	EncodeSec map[string]map[string]float64
	// Payload[family][algo] is the per-worker payload in bytes.
	Payload map[string]map[string]int64
	// Kind[algo] is the exchange collective.
	Kind map[string]netsim.ExchangeKind
	// N[family] is the (possibly scaled) parameter count used.
	N map[string]int
}

// defaultComputeBase approximates per-iteration forward/backward time,
// loosely proportional to model cost on the paper's V100s. Identical for
// all algorithms, so it never changes orderings — only baselines them.
var defaultComputeBase = map[string]float64{
	"fnn3":     0.004,
	"resnet20": 0.012,
	"vgg16":    0.045,
	"lstm":     0.085,
}

// NewIterModel measures the per-algorithm compression time at (scaled)
// paper-size parameter counts and assembles the pricing model.
func NewIterModel(fabric netsim.Fabric, paramScale int, algos []string) (*IterModel, error) {
	if paramScale <= 0 {
		paramScale = 1
	}
	if len(algos) == 0 {
		algos = EvalAlgos
	}
	m := &IterModel{
		Fabric:        fabricOrDefault(fabric),
		ParamScale:    paramScale,
		EncodeSpeedup: 50,
		ComputeBase:   defaultComputeBase,
		EncodeSec:     map[string]map[string]float64{},
		Payload:       map[string]map[string]int64{},
		Kind:          map[string]netsim.ExchangeKind{},
		N:             map[string]int{},
	}
	for _, fam := range models.Families() {
		paperN, err := models.PaperParamCount(fam)
		if err != nil {
			return nil, err
		}
		n := paperN / paramScale
		if n < 1000 {
			n = 1000
		}
		m.N[fam] = n
		g := make([]float32, n)
		tensor.NewRNG(uint64(n)).NormVec(g, 0, 0.05)
		m.EncodeSec[fam] = map[string]float64{}
		m.Payload[fam] = map[string]int64{}
		for _, algo := range algos {
			a := newAlgo(algo, n, 5)
			a.Encode(g) // warm-up: buffer allocation
			// Minimum of three timed runs: a single sample is vulnerable to
			// scheduler noise, especially at small scaled sizes.
			best := math.Inf(1)
			for rep := 0; rep < 3; rep++ {
				t0 := time.Now()
				a.Encode(g)
				if sec := time.Since(t0).Seconds(); sec < best {
					best = sec
				}
			}
			m.EncodeSec[fam][algo] = best
			m.Payload[fam][algo] = a.PayloadBytes(n)
			m.Kind[algo] = a.ExchangeKind()
		}
	}
	return m, nil
}

// IterSec prices one iteration for (family, algo) at p workers.
func (m *IterModel) IterSec(family, algo string, p int) float64 {
	comm := m.Fabric.SyncTime(m.Kind[algo], m.Payload[family][algo], p)
	speed := m.EncodeSpeedup
	if speed <= 0 {
		speed = 1
	}
	return m.ComputeBase[family] + m.EncodeSec[family][algo]/speed + comm
}

// Throughput returns modelled samples/second with batch 128 per worker.
func (m *IterModel) Throughput(family, algo string, p int) float64 {
	return float64(128*p) / m.IterSec(family, algo, p)
}

// paperIters is the approximate total iteration count of each paper run:
// epochs × (dataset size / global batch).
var paperIters = map[string]int{
	"fnn3":     30 * 469,  // 30 epochs × 60000/128
	"vgg16":    150 * 391, // 150 epochs × 50000/128
	"resnet20": 150 * 391,
	"lstm":     100 * 207, // 100 epochs × ≈929k tokens/(128·35)
}

// Figure4Cell is one (family, algo, workers) average-iteration-time value.
type Figure4Cell struct {
	Family  string
	Algo    string
	Workers int
	IterSec float64
}

// Figure4 prints average iteration time versus worker count for every model
// and algorithm (paper Figure 4).
func Figure4(w io.Writer, m *IterModel, workerCounts []int) []Figure4Cell {
	if len(workerCounts) == 0 {
		workerCounts = []int{2, 4, 8, 16}
	}
	var cells []Figure4Cell
	for _, fam := range models.Families() {
		fmt.Fprintf(w, "\nFigure 4 (%s, n=%d): average iteration time (ms) on %s\n",
			fam, m.N[fam], m.Fabric.Name)
		header := []string{"workers"}
		for _, a := range EvalAlgos {
			header = append(header, a)
		}
		var rows [][]string
		for _, p := range workerCounts {
			row := []string{fmt.Sprintf("%d", p)}
			for _, algo := range EvalAlgos {
				it := m.IterSec(fam, algo, p)
				cells = append(cells, Figure4Cell{Family: fam, Algo: algo, Workers: p, IterSec: it})
				row = append(row, fmt.Sprintf("%.3f", it*1000))
			}
			rows = append(rows, row)
		}
		table(w, header, rows)
	}
	return cells
}

// Figure5Cell is one (family, algo, workers) total-training-time value.
type Figure5Cell struct {
	Family   string
	Algo     string
	Workers  int
	TotalSec float64
}

// Figure5 prints total training time versus worker count (paper Figure 5):
// the Figure 4 iteration time multiplied by the paper's iteration budget,
// divided across workers (data parallelism shrinks the per-worker epoch).
func Figure5(w io.Writer, m *IterModel, workerCounts []int) []Figure5Cell {
	if len(workerCounts) == 0 {
		workerCounts = []int{2, 4, 8, 16}
	}
	var cells []Figure5Cell
	for _, fam := range models.Families() {
		fmt.Fprintf(w, "\nFigure 5 (%s): total training time (s) on %s\n", fam, m.Fabric.Name)
		header := []string{"workers"}
		for _, a := range EvalAlgos {
			header = append(header, a)
		}
		var rows [][]string
		for _, p := range workerCounts {
			row := []string{fmt.Sprintf("%d", p)}
			for _, algo := range EvalAlgos {
				iters := float64(paperIters[fam]) / float64(p)
				tot := m.IterSec(fam, algo, p) * iters
				cells = append(cells, Figure5Cell{Family: fam, Algo: algo, Workers: p, TotalSec: tot})
				row = append(row, fmt.Sprintf("%.1f", tot))
			}
			rows = append(rows, row)
		}
		table(w, header, rows)
	}
	return cells
}

// Table2 prints the synchronization-complexity comparison (paper Table 2):
// analytic computation complexity, analytic and concrete communication
// volume, and the modelled scaling efficiency at 8 workers normalized to
// dense SGD at 2 workers.
func Table2(w io.Writer, m *IterModel) map[string]map[string]float64 {
	complexity := map[string]string{
		"dense":     "O(1)",
		"qsgd":      "O(n) here; O(n^2) in the paper's numpy baseline",
		"topk":      "O(n + k log n)",
		"gaussiank": "O(n)",
		"a2sgd":     "O(n)",
	}
	commBits := map[string]string{
		"dense":     "32n",
		"qsgd":      "4n+32 here (paper: 2.8n+32)",
		"topk":      "32k values (+32k indices on the wire)",
		"gaussiank": "32k values (+32k indices on the wire)",
		"a2sgd":     "64",
	}
	eff := map[string]map[string]float64{}
	var rows [][]string
	for _, algo := range EvalAlgos {
		effs := make([]string, 0, 4)
		eff[algo] = map[string]float64{}
		for _, fam := range models.Families() {
			e := m.Throughput(fam, algo, 8) / m.Throughput(fam, "dense", 2)
			eff[algo][fam] = e
			effs = append(effs, fmt.Sprintf("%.2f", e))
		}
		lstmBytes := m.Payload["lstm"][algo]
		rows = append(rows, []string{
			algo, complexity[algo], commBits[algo],
			fmt.Sprintf("%d", lstmBytes),
			fmt.Sprintf("(%s / %s / %s / %s)", effs[0], effs[1], effs[2], effs[3]),
		})
	}
	fmt.Fprintf(w, "\nTable 2: gradient synchronization complexities and scaling efficiency\n")
	fmt.Fprintf(w, "(scaling efficiency = modelled throughput at 8 workers / dense at 2 workers; FNN/VGG/ResNet/LSTM)\n")
	table(w, []string{"Algorithm", "Computation", "Comm (bits)", "LSTM bytes/worker", "Scaling eff (8w)"}, rows)
	return eff
}
