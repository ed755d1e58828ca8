package bench

import (
	"fmt"
	"io"

	"a2sgd/internal/cluster"
	"a2sgd/internal/netsim"
)

// HierarchySweepConfig bounds the hierarchical-topology ablation runs.
type HierarchySweepConfig struct {
	// Family, Workers, Epochs, Steps configure each training run (defaults
	// fnn3 / 8 / 2 / 8).
	Family                 string
	Workers, Epochs, Steps int
	// RanksPerNode lists the node widths to sweep; 1 is the flat baseline.
	// Default {1, 2, Workers/2}.
	RanksPerNode []int
	// BucketBytes lists the bucket budgets crossed with each topology
	// (0 = whole model). Default {0, 8192}.
	BucketBytes []int
	// Intra and Inter parameterize the two-tier price law (defaults
	// NVLink-class and the paper's IB100).
	Intra, Inter netsim.Fabric
	// Algorithms defaults to the paper's five-method evaluation set.
	Algorithms []string
}

// HierarchyPoint is one (algorithm, ranks-per-node, bucket budget) cell.
type HierarchyPoint struct {
	Algorithm string
	// RanksPerNode is the node width the cell actually ran with (requested
	// widths clamp to the worker count; duplicates are skipped). 1 = flat.
	RanksPerNode int
	BucketBytes  int
	Buckets      int
	// StepSec is the measured wall-clock per overlapped step on the
	// in-process fabric.
	StepSec float64
	// ModelFlatSec prices the run's full iteration as if every link were
	// the slow inter-node tier (the paper's flat assumption);
	// ModelHierSec prices the two-level schedule on the two-tier law. Their
	// gap is what the hierarchy saves per iteration.
	ModelFlatSec, ModelHierSec float64
	// SyncFlatSec and SyncHierSec isolate the modelled synchronization time
	// (per-bucket collectives, no compute/encode) under the flat and
	// two-tier price laws — the pure network effect of the topology.
	SyncFlatSec, SyncHierSec float64
	// FinalMetric demonstrates convergence equivalence across topologies.
	FinalMetric float64
}

func (c *HierarchySweepConfig) defaults() HierarchySweepConfig {
	cfg := *c
	if cfg.Family == "" {
		cfg.Family = "fnn3"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 2
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 8
	}
	if len(cfg.RanksPerNode) == 0 {
		cfg.RanksPerNode = []int{1, 2}
		if cfg.Workers/2 > 2 {
			cfg.RanksPerNode = append(cfg.RanksPerNode, cfg.Workers/2)
		}
	}
	if len(cfg.BucketBytes) == 0 {
		cfg.BucketBytes = []int{0, 8192}
	}
	if cfg.Intra.Name == "" {
		cfg.Intra = netsim.NVLinkLocal()
	}
	if cfg.Inter.Name == "" {
		cfg.Inter = netsim.IB100()
	}
	if len(cfg.Algorithms) == 0 {
		cfg.Algorithms = EvalAlgos
	}
	return cfg
}

// HierarchySweep runs the ranks-per-node × algorithm × bucket-size ablation:
// every evaluated algorithm trains with each topology width over the
// overlapped bucket pipeline, and each run's synchronization is priced twice
// — on the flat slow fabric (every link inter-node, the paper's assumption)
// and on the two-tier law matching the run's topology. The flat-vs-
// hierarchical gap extends the paper's Figures 4–5 fabric analysis along a
// topology axis the paper never measured.
func HierarchySweep(w io.Writer, c HierarchySweepConfig) ([]HierarchyPoint, error) {
	cfg := c.defaults()
	var points []HierarchyPoint
	seen := map[[2]int]bool{} // (effective rpn, bucket) cells already run per algorithm
	for _, algo := range cfg.Algorithms {
		for k := range seen {
			delete(seen, k)
		}
		for _, rpn := range cfg.RanksPerNode {
			for _, bb := range cfg.BucketBytes {
				// Widths beyond the worker count clamp to one node; skip the
				// duplicate cells so every reported row names a topology that
				// actually ran.
				eff := rpn
				if eff < 1 {
					eff = 1
				}
				if eff > cfg.Workers {
					eff = cfg.Workers
				}
				if seen[[2]int{eff, bb}] {
					if w != nil {
						fmt.Fprintf(w, "hierarchy sweep: ranks/node %d clamps to %d for %d workers — skipping duplicate cell\n",
							rpn, eff, cfg.Workers)
					}
					continue
				}
				seen[[2]int{eff, bb}] = true
				topo := 0
				if eff > 1 {
					topo = eff
				}
				sched, err := cluster.Lower(cfg.Family, algo, bb, topo, true)
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", algo, err)
				}
				res, err := cluster.Train(cluster.Config{
					Workers: cfg.Workers, Family: cfg.Family, Schedule: sched,
					Epochs: cfg.Epochs, StepsPerEpoch: cfg.Steps, Seed: 11,
				})
				if err != nil {
					return nil, fmt.Errorf("bench: %s rpn=%d bucket=%dB: %w", algo, eff, bb, err)
				}
				two := netsim.TwoTier{
					Name:  cfg.Intra.Name + "+" + cfg.Inter.Name,
					Intra: cfg.Intra, Inter: cfg.Inter, RanksPerNode: eff,
				}
				var syncFlat, syncHier float64
				for _, pb := range res.BucketPayloadBytes {
					syncFlat += cfg.Inter.SyncTime(res.ExchangeKind, pb, res.Workers)
					syncHier += two.SyncTime(res.ExchangeKind, pb, res.Workers)
				}
				points = append(points, HierarchyPoint{
					Algorithm:    algo,
					RanksPerNode: eff,
					BucketBytes:  bb,
					Buckets:      res.Buckets,
					StepSec:      res.AvgStepSec,
					ModelFlatSec: res.ModeledIterSecOverlap(cfg.Inter),
					ModelHierSec: res.ModeledIterSecOverlap(two),
					SyncFlatSec:  syncFlat,
					SyncHierSec:  syncHier,
					FinalMetric:  res.FinalMetric(),
				})
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
			speedup := 1.0
			if p.SyncHierSec > 0 {
				speedup = p.SyncFlatSec / p.SyncHierSec
			}
			rows = append(rows, []string{
				p.Algorithm, fmt.Sprintf("%d", p.RanksPerNode), bb,
				fmt.Sprintf("%d", p.Buckets),
				fmt.Sprintf("%.1f", p.StepSec*1e6),
				fmt.Sprintf("%.2f", p.SyncFlatSec*1e6),
				fmt.Sprintf("%.2f", p.SyncHierSec*1e6),
				fmt.Sprintf("%.2fx", speedup),
				fmt.Sprintf("%.2f", p.ModelHierSec*1e6),
				fmt.Sprintf("%.4f", p.FinalMetric),
			})
		}
		fmt.Fprintf(w, "hierarchy sweep — %s, %d workers, intra %s / inter %s (µs/iter)\n",
			cfg.Family, cfg.Workers, cfg.Intra.Name, cfg.Inter.Name)
		table(w, []string{
			"algorithm", "ranks/node", "bucket", "k",
			"step-meas", "sync-flat", "sync-hier", "sync-gain", "iter-hier", "metric",
		}, rows)
	}
	return points, nil
}
