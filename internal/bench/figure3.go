package bench

import (
	"fmt"
	"io"

	"a2sgd"
	"a2sgd/internal/models"
)

// Figure3Series is one convergence curve: a model × algorithm × worker-count
// cell of the paper's Figures 3 and 6–8.
type Figure3Series struct {
	Family    string
	Algo      string
	Workers   int
	Metric    models.Metric
	PerEpoch  []float64 // accuracy (↑) or perplexity (↓) per epoch
	FinalLoss float64
}

// Figure3Config bounds the convergence sweep.
type Figure3Config struct {
	Families []string // default: all four
	Algos    []string // default: the five evaluated methods
	Workers  []int    // default: {8} (Fig 3); {2,4,16} adds Figs 6–8
	Epochs   int      // default 8
	Steps    int      // default 12 steps/epoch
	Batch    int      // default 8 per worker
	Seed     uint64   // default 7
	// Density is the sparsifier selection fraction. The paper's 0.001
	// yields k in the tens of thousands on its 14–66 M-parameter models;
	// on the reduced CPU-trainable models (3–27 k parameters) the same
	// fraction would select single-digit k and starve Top-K/Gaussian-K.
	// The default 0.05 keeps k at a comparable effective magnitude.
	Density float64
	// LRScale multiplies the Table-1 schedules. The paper's linear-scaled
	// rates are tuned for its full-size models and datasets; the reduced
	// models tolerate less. Default 0.5 (the LSTM policy additionally
	// carries its own 0.25 calibration inside the runtime).
	LRScale float64
}

func (c Figure3Config) withDefaults() Figure3Config {
	if len(c.Families) == 0 {
		c.Families = models.Families()
	}
	if len(c.Algos) == 0 {
		c.Algos = EvalAlgos
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{8}
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.Steps <= 0 {
		c.Steps = 12
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Density == 0 {
		c.Density = 0.05
	}
	if c.LRScale == 0 {
		c.LRScale = 0.5
	}
	return c
}

// Figure3 runs the convergence comparison and prints one table per
// (family, workers) pair with a column per algorithm, mirroring the paper's
// accuracy/perplexity-vs-epoch panels.
func Figure3(w io.Writer, cfg Figure3Config) ([]Figure3Series, error) {
	cfg = cfg.withDefaults()
	var out []Figure3Series
	for _, p := range cfg.Workers {
		for _, fam := range cfg.Families {
			series := make([]Figure3Series, 0, len(cfg.Algos))
			for _, algo := range cfg.Algos {
				// The density override lowers onto the spec itself (the
				// registry's schema decides whether the root accepts it).
				res, err := a2sgd.Train(a2sgd.TrainConfig{
					Workers: p, Family: fam, Spec: specWithDensity(algo, cfg.Density),
					Epochs: cfg.Epochs, StepsPerEpoch: cfg.Steps,
					BatchPerWorker: cfg.Batch, Seed: cfg.Seed, Momentum: 0.9,
					LRScale: cfg.LRScale,
				})
				if err != nil {
					return nil, fmt.Errorf("figure3 %s/%s/p%d: %w", fam, algo, p, err)
				}
				s := Figure3Series{Family: fam, Algo: algo, Workers: p, Metric: res.Metric}
				for _, e := range res.Epochs {
					s.PerEpoch = append(s.PerEpoch, e.Metric)
				}
				if len(res.Epochs) > 0 {
					s.FinalLoss = res.Epochs[len(res.Epochs)-1].Loss
				}
				series = append(series, s)
				out = append(out, s)
			}
			metricName := "top-1 accuracy"
			if series[0].Metric == models.MetricPerplexity {
				metricName = "perplexity"
			}
			fmt.Fprintf(w, "\nFigure 3 (%s, %d workers): %s per epoch\n", fam, p, metricName)
			header := []string{"epoch"}
			for _, s := range series {
				header = append(header, s.Algo)
			}
			var rows [][]string
			for e := 0; e < cfg.Epochs; e++ {
				row := []string{fmt.Sprintf("%d", e)}
				for _, s := range series {
					if e < len(s.PerEpoch) {
						row = append(row, fmt.Sprintf("%.4f", s.PerEpoch[e]))
					} else {
						row = append(row, "-")
					}
				}
				rows = append(rows, row)
			}
			table(w, header, rows)
		}
	}
	return out, nil
}
