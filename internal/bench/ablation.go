package bench

import (
	"fmt"
	"io"

	"a2sgd"
	"a2sgd/internal/compress"
)

// AblationResult is one variant's convergence and traffic outcome.
type AblationResult struct {
	Variant      string
	FinalMetric  float64
	PayloadB     int64
	BytesPerStep float64
}

// AblationSpecs derives the ablation variant list from the registry instead
// of a hardcoded table: every registered leaf algorithm (Wraps == 0) with
// its default parameters — so the A2SGD ablation variants that
// self-register from internal/core, and any third-party registration, join
// the sweep automatically — plus the periodic round-reduction composition
// the paper's conclusion names. "dense" leads as the reference; the rest
// follow in registry (sorted-name) order.
func AblationSpecs() []string {
	specs := []string{"dense"}
	for _, name := range compress.Registered() {
		if name == "dense" {
			continue
		}
		if b, ok := compress.LookupBuilder(name); !ok || b.Wraps > 0 {
			continue // wrappers need an inner spec; the composition below covers them
		}
		specs = append(specs, name)
	}
	return append(specs, "periodic(a2sgd, interval=4)")
}

// Ablation runs the design-choice comparisons PAPER.md lists under
// Algorithm 1 as a single convergence experiment on FNN-3: dense SGD as the
// reference, every registered algorithm variant (the paper's comparators,
// A2SGD and its error-feedback-off, one-mean and allgather-exchange
// ablations), and the Periodic composition. Sparsifiers run at density 0.05
// so their selections stay visible at the reduced fnn3 scale (the
// spec-level override the registry schema gates).
func Ablation(w io.Writer, workers, epochs int) ([]AblationResult, error) {
	if workers <= 0 {
		workers = 4
	}
	if epochs <= 0 {
		epochs = 8
	}
	var out []AblationResult
	var rows [][]string
	for _, variant := range AblationSpecs() {
		res, err := a2sgd.Train(a2sgd.TrainConfig{
			Workers: workers, Family: "fnn3", Spec: specWithDensity(variant, 0.05),
			Epochs:         epochs,
			StepsPerEpoch:  12,
			BatchPerWorker: 8,
			Seed:           7,
			Momentum:       0.9,
			LRScale:        0.5,
		})
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", variant, err)
		}
		r := AblationResult{
			Variant:      variant,
			FinalMetric:  res.FinalMetric(),
			PayloadB:     res.PayloadBytes,
			BytesPerStep: res.BytesPerWorkerPerStep,
		}
		out = append(out, r)
		rows = append(rows, []string{
			variant,
			fmt.Sprintf("%.4f", r.FinalMetric),
			fmt.Sprintf("%d", r.PayloadB),
			fmt.Sprintf("%.0f", r.BytesPerStep),
		})
	}
	fmt.Fprintf(w, "\nAblations (FNN-3, %d workers, %d epochs): every registered variant (PAPER.md, Algorithm 1)\n", workers, epochs)
	table(w, []string{"variant", "final top-1 acc", "payload B/worker", "measured B/step"}, rows)
	return out, nil
}
