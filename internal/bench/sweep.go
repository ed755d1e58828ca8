package bench

import (
	"fmt"
	"io"
	"slices"

	"a2sgd"
	"a2sgd/internal/compress"
	"a2sgd/internal/netsim"
)

// SweepConfig bounds the policy × bucket budget × topology sweep.
type SweepConfig struct {
	// Family, Workers, Epochs, Steps configure each training run (defaults
	// fnn3 / 4 / 2 / 8).
	Family                 string
	Workers, Epochs, Steps int
	// Policies lists the per-bucket policies to compare; a bare algorithm
	// spec ("topk(density=0.01)") is uniform(spec). Default: the paper's
	// five-method evaluation set.
	Policies []string
	// BucketBytes lists the bucket budgets to sweep; 0 is the whole-model
	// single bucket. Default {0, 2048, 8192, 32768}.
	BucketBytes []int
	// RanksPerNode lists the node widths to sweep; 1 (the default) is flat.
	RanksPerNode []int
	// Intra and Inter parameterize the price law (defaults NVLink-class and
	// the paper's IB100): a width-1 cell is priced on Inter alone, wider
	// cells on the two-tier law matching the run's topology.
	Intra, Inter netsim.Fabric
}

// SweepPoint is one (policy, ranks-per-node, bucket budget) cell.
type SweepPoint struct {
	Policy string // canonical policy name ("uniform(a2sgd)")
	// RanksPerNode is the node width the cell actually ran with (requested
	// widths clamp to the worker count; duplicates are skipped). 1 = flat.
	RanksPerNode int
	BucketBytes  int
	Buckets      int
	// Composition is the bucketed algorithm name, showing which specs the
	// policy actually assigned ("a2sgd|dense+bucketed[5]").
	Composition string
	// PayloadBytes is the analytic per-worker payload per step.
	PayloadBytes int64
	// Measured wall-clock per step on the in-process fabric.
	StepSecSync, StepSecOverlap float64
	// Modelled iteration prices on the cell's pricer, each bucket under its
	// own exchange kind: the per-bucket serial law and the overlap pipeline
	// law. HiddenSyncSec is their gap — the synchronization time the
	// pipeline hides behind encode.
	ModelSerialSec, ModelOverlapSec float64
	HiddenSyncSec                   float64
	// SyncFlatSec and SyncHierSec isolate the modelled synchronization time
	// (per-bucket collectives, no compute/encode) as if every link were the
	// slow inter-node tier (the paper's flat assumption) and on the cell's
	// pricer — the pure network effect of the topology.
	SyncFlatSec, SyncHierSec float64
	// FinalMetric is the last epoch's held-out metric: the determinism
	// anchor, and the convergence-equivalence check across topologies.
	FinalMetric float64
}

func (c *SweepConfig) defaults() SweepConfig {
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
	if len(cfg.Policies) == 0 {
		cfg.Policies = EvalAlgos
	}
	if len(cfg.BucketBytes) == 0 {
		cfg.BucketBytes = []int{0, 2048, 8192, 32768}
	}
	if len(cfg.RanksPerNode) == 0 {
		cfg.RanksPerNode = []int{1}
	}
	if cfg.Intra.Name == "" {
		cfg.Intra = netsim.NVLinkLocal()
	}
	if cfg.Inter.Name == "" {
		cfg.Inter = netsim.IB100()
	}
	return cfg
}

// Sweep runs the policy × ranks-per-node × bucket-size ablation: every cell
// trains synchronously and with the overlapped pipeline, and the overlapped
// run is priced on the network model matching its topology — serial and
// pipelined iteration time (the axis the paper's Figures 4–5 iteration-time
// analysis extends along), and the synchronization alone on the flat slow
// fabric versus that model (a topology axis the paper never measured). Every
// bucket is priced under its own collective, so a mixed policy lands between
// its uniform extremes (dense buckets allreduce the raw gradient, A2SGD
// buckets two scalars).
func Sweep(w io.Writer, c SweepConfig) ([]SweepPoint, error) {
	cfg := c.defaults()
	// Every cell is a per-bucket policy run: refuse "auto" and any other
	// non-policy before the first cell trains.
	for _, policy := range cfg.Policies {
		if _, err := compress.ParsePolicy(policy); err != nil {
			return nil, fmt.Errorf("bench: sweep: %w", err)
		}
	}
	var points []SweepPoint
	// Widths beyond the worker count clamp to one node; skip the duplicates so
	// every reported row names a topology that actually ran.
	var widths []int
	for _, rpn := range cfg.RanksPerNode {
		eff := min(max(rpn, 1), cfg.Workers)
		if slices.Contains(widths, eff) {
			if w != nil {
				fmt.Fprintf(w, "sweep: ranks/node %d clamps to %d for %d workers — skipping duplicate cells\n",
					rpn, eff, cfg.Workers)
			}
			continue
		}
		widths = append(widths, eff)
	}
	for _, policy := range cfg.Policies {
		for _, eff := range widths {
			for _, bb := range cfg.BucketBytes {
				run := func(overlap bool) (*a2sgd.Result, error) {
					return a2sgd.Train(a2sgd.TrainConfig{
						Workers: cfg.Workers, Family: cfg.Family,
						Spec: policy, BucketBytes: bb, Topology: eff, Overlap: overlap,
						Epochs: cfg.Epochs, StepsPerEpoch: cfg.Steps, Seed: 11,
					})
				}
				sync, err := run(false)
				if err != nil {
					return nil, fmt.Errorf("bench: %q rpn=%d bucket=%dB sync: %w", policy, eff, bb, err)
				}
				over, err := run(true)
				if err != nil {
					return nil, fmt.Errorf("bench: %q rpn=%d bucket=%dB overlap: %w", policy, eff, bb, err)
				}
				var pricer netsim.Pricer = cfg.Inter
				if eff > 1 {
					pricer = netsim.TwoTier{
						Name:  cfg.Intra.Name + "+" + cfg.Inter.Name,
						Intra: cfg.Intra, Inter: cfg.Inter, RanksPerNode: eff,
					}
				}
				p := SweepPoint{
					Policy:       over.Policy,
					RanksPerNode: eff,
					BucketBytes:  bb,
					Buckets:      over.Buckets,
					Composition:  over.Algorithm,
					PayloadBytes: over.PayloadBytes,
					StepSecSync:  sync.AvgStepSec, StepSecOverlap: over.AvgStepSec,
					ModelSerialSec:  over.ModeledIterSecSerial(pricer),
					ModelOverlapSec: over.ModeledIterSecOverlap(pricer),
					FinalMetric:     over.FinalMetric(),
				}
				p.HiddenSyncSec = p.ModelSerialSec - p.ModelOverlapSec
				// No encode times: the serial law is then the collectives alone.
				kinds, bytes := over.BucketExchangeKinds, over.BucketPayloadBytes
				p.SyncFlatSec = netsim.PriceSchedule(cfg.Inter, kinds, nil, bytes, over.Workers).Serial
				p.SyncHierSec = netsim.PriceSchedule(pricer, kinds, nil, bytes, over.Workers).Serial
				points = append(points, p)
			}
		}
	}
	if w != nil {
		rows := make([][]string, 0, len(points))
		for _, p := range points {
			bb := "whole"
			if p.BucketBytes > 0 {
				bb = fmt.Sprintf("%dB", p.BucketBytes)
			}
			gain := 1.0
			if p.SyncHierSec > 0 {
				gain = p.SyncFlatSec / p.SyncHierSec
			}
			rows = append(rows, []string{
				p.Policy, fmt.Sprintf("%d", p.RanksPerNode), bb,
				fmt.Sprintf("%d", p.Buckets), p.Composition,
				fmt.Sprintf("%d", p.PayloadBytes),
				fmt.Sprintf("%.1f", p.StepSecSync*1e6),
				fmt.Sprintf("%.1f", p.StepSecOverlap*1e6),
				fmt.Sprintf("%.2f", p.ModelSerialSec*1e6),
				fmt.Sprintf("%.2f", p.ModelOverlapSec*1e6),
				fmt.Sprintf("%.2f", p.HiddenSyncSec*1e6),
				fmt.Sprintf("%.2f", p.SyncFlatSec*1e6),
				fmt.Sprintf("%.2f", p.SyncHierSec*1e6),
				fmt.Sprintf("%.2fx", gain),
				fmt.Sprintf("%.4f", p.FinalMetric),
			})
		}
		fmt.Fprintf(w, "sweep — %s, %d workers, intra %s / inter %s (µs/iter)\n",
			cfg.Family, cfg.Workers, cfg.Intra.Name, cfg.Inter.Name)
		table(w, []string{
			"policy", "ranks/node", "bucket", "k", "composition", "payload/worker",
			"step-sync", "step-overlap", "model-serial", "model-overlap", "hidden-sync",
			"sync-flat", "sync-hier", "sync-gain", "metric",
		}, rows)
	}
	return points, nil
}
