package bench

import (
	"fmt"
	"io"

	"a2sgd/internal/cluster"
	"a2sgd/internal/netsim"
)

// BucketSweepConfig bounds the bucket-size ablation runs.
type BucketSweepConfig struct {
	// Family, Workers, Epochs, Steps configure each training run (defaults
	// fnn3 / 4 / 2 / 8).
	Family                 string
	Workers, Epochs, Steps int
	// BucketBytes lists the bucket budgets to sweep; 0 is the whole-model
	// single bucket. Default {0, 2048, 8192, 32768}.
	BucketBytes []int
	// Fabric prices the modelled iteration times.
	Fabric netsim.Fabric
	// Algorithms defaults to the paper's five-method evaluation set.
	Algorithms []string
}

// BucketPoint is one (algorithm, bucket budget) cell of the sweep.
type BucketPoint struct {
	Algorithm   string
	BucketBytes int
	Buckets     int
	// Measured wall-clock per step on the in-process fabric.
	StepSecSync, StepSecOverlap float64
	// Modelled iteration prices on the configured fabric: the per-bucket
	// serial law and the overlap pipeline law. HiddenSyncSec is their gap —
	// the synchronization time the pipeline hides behind encode.
	ModelSerialSec, ModelOverlapSec float64
	HiddenSyncSec                   float64
}

func (c *BucketSweepConfig) defaults() BucketSweepConfig {
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
		cfg.BucketBytes = []int{0, 2048, 8192, 32768}
	}
	if cfg.Fabric.Name == "" {
		cfg.Fabric = netsim.IB100()
	}
	if len(cfg.Algorithms) == 0 {
		cfg.Algorithms = EvalAlgos
	}
	return cfg
}

// BucketSweep runs the bucket-size × algorithm ablation: every evaluated
// algorithm is trained with each bucket budget, synchronously and with the
// overlapped pipeline, reporting measured step time plus the serial and
// overlap-aware modelled iteration prices — the new axis the paper's
// Figures 4–5 iteration-time analysis extends along.
func BucketSweep(w io.Writer, c BucketSweepConfig) ([]BucketPoint, error) {
	cfg := c.defaults()
	var points []BucketPoint
	for _, algo := range cfg.Algorithms {
		for _, bb := range cfg.BucketBytes {
			run := func(overlap bool) (*cluster.Result, error) {
				sched, err := cluster.Lower(cfg.Family, algo, bb, 0, overlap)
				if err != nil {
					return nil, err
				}
				return cluster.Train(cluster.Config{
					Workers: cfg.Workers, Family: cfg.Family, Schedule: sched,
					Epochs: cfg.Epochs, StepsPerEpoch: cfg.Steps, Seed: 11,
				})
			}
			sync, err := run(false)
			if err != nil {
				return nil, fmt.Errorf("bench: %s bucket=%dB sync: %w", algo, bb, err)
			}
			over, err := run(true)
			if err != nil {
				return nil, fmt.Errorf("bench: %s bucket=%dB overlap: %w", algo, bb, err)
			}
			serial := over.ModeledIterSecSerial(cfg.Fabric)
			pipelined := over.ModeledIterSecOverlap(cfg.Fabric)
			points = append(points, BucketPoint{
				Algorithm:   algo,
				BucketBytes: bb,
				Buckets:     over.Buckets,
				StepSecSync: sync.AvgStepSec, StepSecOverlap: over.AvgStepSec,
				ModelSerialSec: serial, ModelOverlapSec: pipelined,
				HiddenSyncSec: serial - pipelined,
			})
		}
	}
	if w != nil {
		rows := make([][]string, 0, len(points))
		for _, p := range points {
			bb := "whole"
			if p.BucketBytes > 0 {
				bb = fmt.Sprintf("%dB", p.BucketBytes)
			}
			rows = append(rows, []string{
				p.Algorithm, bb, fmt.Sprintf("%d", p.Buckets),
				fmt.Sprintf("%.1f", p.StepSecSync*1e6),
				fmt.Sprintf("%.1f", p.StepSecOverlap*1e6),
				fmt.Sprintf("%.2f", p.ModelSerialSec*1e6),
				fmt.Sprintf("%.2f", p.ModelOverlapSec*1e6),
				fmt.Sprintf("%.2f", p.HiddenSyncSec*1e6),
			})
		}
		fmt.Fprintf(w, "bucket sweep — %s, %d workers, fabric %s (µs/iter)\n",
			cfg.Family, cfg.Workers, cfg.Fabric.Name)
		table(w, []string{
			"algorithm", "bucket", "k",
			"step-sync", "step-overlap", "model-serial", "model-overlap", "hidden-sync",
		}, rows)
	}
	return points, nil
}
