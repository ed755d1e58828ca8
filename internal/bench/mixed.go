package bench

import (
	"fmt"
	"io"

	"a2sgd/internal/cluster"
	"a2sgd/internal/netsim"
)

// MixedSweepConfig bounds the per-bucket policy comparison runs.
type MixedSweepConfig struct {
	// Family, Workers, Epochs, Steps configure each training run (defaults
	// fnn3 / 4 / 2 / 8).
	Family                 string
	Workers, Epochs, Steps int
	// BucketBytes lists the bucket budgets to sweep (the partition the
	// policies act on). Default {4096, 16384}.
	BucketBytes []int
	// Policies lists the per-bucket policy specs to compare. Default:
	// uniform dense, uniform a2sgd, and the ROADMAP's mixed scenario
	// (big buckets A2SGD-compressed, small buckets dense).
	Policies []string
	// Fabric prices the modelled iteration times.
	Fabric netsim.Fabric
	// Seed fixes each run (default 17).
	Seed uint64
}

// MixedPoint is one (policy, bucket budget) cell of the sweep.
type MixedPoint struct {
	Policy      string // canonical policy name
	BucketBytes int
	Buckets     int
	// Composition is the bucketed algorithm name, showing which specs the
	// policy actually assigned ("a2sgd|dense+bucketed[5]").
	Composition string
	// PayloadBytes is the analytic per-worker payload per step.
	PayloadBytes int64
	// FinalMetric is the last epoch's held-out metric (determinism anchor).
	FinalMetric float64
	// Modelled iteration prices on the configured fabric, accounting each
	// bucket under its own exchange kind: serial and overlap-pipelined.
	ModelSerialSec, ModelOverlapSec float64
}

func (c *MixedSweepConfig) defaults() MixedSweepConfig {
	cfg := *c
	if cfg.Family == "" {
		cfg.Family = "fnn3"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 2
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 8
	}
	if len(cfg.BucketBytes) == 0 {
		cfg.BucketBytes = []int{4096, 16384}
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []string{
			"uniform(dense)",
			"uniform(a2sgd)",
			"mixed(big=a2sgd, small=dense, threshold=8KiB)",
		}
	}
	if cfg.Fabric.Name == "" {
		cfg.Fabric = netsim.IB100()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 17
	}
	return cfg
}

// MixedSweep runs the per-bucket policy comparison the registry+policy API
// unlocks: every policy trains on every bucket partition, and the modelled
// sync time prices each bucket under its own collective (dense buckets
// allreduce the raw gradient, A2SGD buckets allreduce two scalars), showing
// where a mixed policy lands between the two uniform extremes.
func MixedSweep(w io.Writer, c MixedSweepConfig) ([]MixedPoint, error) {
	cfg := c.defaults()
	var points []MixedPoint
	for _, policySrc := range cfg.Policies {
		for _, bb := range cfg.BucketBytes {
			sched, err := cluster.Lower(cfg.Family, policySrc, bb, 0, true)
			if err != nil {
				return nil, fmt.Errorf("bench: policy %q: %w", policySrc, err)
			}
			res, err := cluster.Train(cluster.Config{
				Workers: cfg.Workers, Family: cfg.Family, Schedule: sched,
				Epochs: cfg.Epochs, StepsPerEpoch: cfg.Steps, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: policy %q bucket=%dB: %w", sched.Policy, bb, err)
			}
			points = append(points, MixedPoint{
				Policy:          res.Policy,
				BucketBytes:     bb,
				Buckets:         res.Buckets,
				Composition:     res.Algorithm,
				PayloadBytes:    res.PayloadBytes,
				FinalMetric:     res.FinalMetric(),
				ModelSerialSec:  res.ModeledIterSecSerial(cfg.Fabric),
				ModelOverlapSec: res.ModeledIterSecOverlap(cfg.Fabric),
			})
		}
	}
	if w != nil {
		rows := make([][]string, 0, len(points))
		for _, p := range points {
			rows = append(rows, []string{
				p.Policy, fmt.Sprintf("%dB", p.BucketBytes), fmt.Sprintf("%d", p.Buckets),
				p.Composition,
				fmt.Sprintf("%d", p.PayloadBytes),
				fmt.Sprintf("%.4f", p.FinalMetric),
				fmt.Sprintf("%.2f", p.ModelSerialSec*1e6),
				fmt.Sprintf("%.2f", p.ModelOverlapSec*1e6),
			})
		}
		fmt.Fprintf(w, "mixed-policy sweep — %s, %d workers, fabric %s (µs/iter)\n",
			cfg.Family, cfg.Workers, cfg.Fabric.Name)
		table(w, []string{
			"policy", "bucket", "k", "composition",
			"payload/worker", "metric", "model-serial", "model-overlap",
		}, rows)
	}
	return points, nil
}
