package bench

import (
	"fmt"
	"io"

	"a2sgd"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
	"a2sgd/internal/plan"
)

// AutoSweepConfig bounds the auto-planner comparison.
type AutoSweepConfig struct {
	// Families lists the models to plan for (default vgg16 + lstm, the two
	// the paper's iteration-time analysis leans on).
	Families []string
	// Workers is the data-parallel width every plan is priced at (default 8).
	Workers int
	// ParamScale divides the paper's parameter counts for the modelled
	// comparison (like the fig4/fig5 -scale knob): the reduced models' layer
	// layout is scaled up to paperN/ParamScale elements, which is where the
	// bucket-size axis starts to matter. <= 0 prices the reduced models
	// as-is.
	ParamScale int
	// Pricers lists the network models to plan against (default the paper's
	// flat IB100 and the NVLink+TCP10G two-tier pair at node width 4).
	Pricers []netsim.Pricer
	// Specs is the candidate list for both the auto policy and the
	// hand-tuned uniform grid (default the evaluated five).
	Specs []string
	// Budgets is the hand-tuned uniform bucket-byte grid the auto plan is
	// compared against (default {0, 2KiB, 8KiB, 32KiB, 128KiB}).
	Budgets []int
	// TrainFamily, when non-empty and Epochs > 0, additionally runs the
	// auto-planned schedule for that family (reduced scale, in-process
	// fabric) to anchor a real convergence metric next to the model.
	TrainFamily   string
	Epochs, Steps int
	// Seed fixes the training anchor (default 17).
	Seed uint64
}

// AutoPoint is one (family, fabric) comparison: the planned schedule
// against the best hand-tuned uniform configuration on the same grid.
type AutoPoint struct {
	Family string
	Fabric string
	// Params is the parameter count the plan was priced at.
	Params int
	// Buckets, Topology and Composition describe the planned schedule.
	Buckets     int
	Topology    int
	Composition string
	// AutoSec is the planned schedule's modelled pipelined makespan;
	// BestSec the best uniform configuration's, reached with BestSpec at
	// BestBudget bucket bytes (0 = whole model).
	AutoSec    float64
	BestSpec   string
	BestBudget int
	BestSec    float64
	// Speedup is BestSec / AutoSec (>= 1 by construction: the uniform grid
	// is inside the planner's search space).
	Speedup float64
}

// AutoTrainPoint anchors one planned schedule in a real training run.
type AutoTrainPoint struct {
	Family      string
	Fabric      string
	Buckets     int
	Topology    int
	Composition string
	Policy      string
	FinalMetric float64
	AvgStepSec  float64
}

// AutoReport bundles the sweep's modelled comparisons and training anchors.
type AutoReport struct {
	Points   []AutoPoint
	Training []AutoTrainPoint
}

func (c *AutoSweepConfig) defaults() AutoSweepConfig {
	cfg := *c
	if len(cfg.Families) == 0 {
		cfg.Families = []string{"vgg16", "lstm"}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if len(cfg.Pricers) == 0 {
		cfg.Pricers = []netsim.Pricer{netsim.IB100(), netsim.TwoTierTCP10G(4)}
	}
	if len(cfg.Specs) == 0 {
		cfg.Specs = EvalAlgos
	}
	if len(cfg.Budgets) == 0 {
		cfg.Budgets = []int{0, 2 << 10, 8 << 10, 32 << 10, 128 << 10}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 17
	}
	return cfg
}

// familySegments returns a family's parameter segments: the reduced model's
// layer layout, optionally scaled so the total approaches the paper's
// parameter count divided by paramScale (each tensor grows proportionally;
// layer structure and ordering are preserved).
func familySegments(family string, paramScale int) ([]nn.Segment, int, error) {
	m, err := models.New(models.Config{Family: family, Seed: 1, Reduced: true})
	if err != nil {
		return nil, 0, err
	}
	segs := m.ParamSegments()
	n := m.NumParams()
	if paramScale <= 0 {
		return segs, n, nil
	}
	paperN, err := models.PaperParamCount(family)
	if err != nil {
		return nil, 0, err
	}
	target := paperN / paramScale
	if target <= n {
		return segs, n, nil
	}
	factor := float64(target) / float64(n)
	scaled := make([]nn.Segment, len(segs))
	off := 0
	for i, s := range segs {
		l := int(float64(s.Len) * factor)
		if s.Len > 0 && l < 1 {
			l = 1
		}
		scaled[i] = nn.Segment{Name: s.Name, Off: off, Len: l}
		off += l
	}
	return scaled, off, nil
}

// AutoSweep closes the planner's loop in a report: for every family ×
// fabric it builds the auto schedule (plan.Build) and prices the full
// hand-tuned uniform grid (spec × bucket budget at the fabric's given
// topology), printing both side by side. With a TrainFamily it also runs
// the planned schedule end to end so the derived configuration's
// convergence is measured, not assumed.
func AutoSweep(w io.Writer, c AutoSweepConfig) (*AutoReport, error) {
	cfg := c.defaults()
	report := &AutoReport{}
	for _, fam := range cfg.Families {
		segs, n, err := familySegments(fam, cfg.ParamScale)
		if err != nil {
			return nil, err
		}
		for _, pr := range cfg.Pricers {
			sched, err := plan.Build(segs, plan.Options{
				Workers: cfg.Workers, Pricer: pr, Candidates: cfg.Specs,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: auto plan %s on %s: %w", fam, pr.Label(), err)
			}
			point := AutoPoint{
				Family: fam, Fabric: pr.Label(), Params: n,
				Buckets: sched.NumBuckets(), Topology: sched.Topology,
				Composition: sched.Composition(), AutoSec: sched.PipelinedSyncSec,
			}
			for _, spec := range cfg.Specs {
				for _, bb := range cfg.Budgets {
					price, err := plan.PriceUniform(segs, spec, bb, plan.Options{Workers: cfg.Workers, Pricer: pr})
					if err != nil {
						return nil, fmt.Errorf("bench: uniform %s@%dB on %s: %w", spec, bb, pr.Label(), err)
					}
					if point.BestSpec == "" || price.Pipelined < point.BestSec {
						point.BestSpec, point.BestBudget, point.BestSec = spec, bb, price.Pipelined
					}
				}
			}
			if point.AutoSec > 0 {
				point.Speedup = point.BestSec / point.AutoSec
			}
			report.Points = append(report.Points, point)
		}
	}

	if cfg.TrainFamily != "" && cfg.Epochs > 0 {
		for _, pr := range cfg.Pricers {
			// Planned and trained at reduced scale, as a2sgd.Train's auto runs.
			sched, err := a2sgd.BuildSchedule(cfg.TrainFamily, a2sgd.PlanOptions{
				Workers: cfg.Workers, Pricer: pr, Candidates: cfg.Specs,
			})
			if err != nil {
				return nil, err
			}
			res, err := a2sgd.Train(a2sgd.TrainConfig{
				Workers: cfg.Workers, Family: cfg.TrainFamily,
				Epochs: cfg.Epochs, StepsPerEpoch: cfg.Steps,
				Seed: cfg.Seed, Schedule: sched,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: auto-planned run %s on %s: %w", cfg.TrainFamily, pr.Label(), err)
			}
			report.Training = append(report.Training, AutoTrainPoint{
				Family: cfg.TrainFamily, Fabric: pr.Label(),
				Buckets: res.Buckets, Topology: res.Topology,
				Composition: sched.Composition(), Policy: res.Policy,
				FinalMetric: res.FinalMetric(), AvgStepSec: res.AvgStepSec,
			})
		}
	}

	if w != nil {
		rows := make([][]string, 0, len(report.Points))
		for _, p := range report.Points {
			bb := "whole"
			if p.BestBudget > 0 {
				bb = fmt.Sprintf("%dB", p.BestBudget)
			}
			rows = append(rows, []string{
				p.Family, p.Fabric, fmt.Sprintf("%d", p.Params),
				fmt.Sprintf("%d", p.Buckets), fmt.Sprintf("%d", p.Topology), p.Composition,
				fmt.Sprintf("%.2f", p.AutoSec*1e6),
				fmt.Sprintf("%s@%s", p.BestSpec, bb),
				fmt.Sprintf("%.2f", p.BestSec*1e6),
				fmt.Sprintf("%.2fx", p.Speedup),
			})
		}
		fmt.Fprintf(w, "auto-planner sweep — %d workers (modelled pipelined sync, µs/step)\n", cfg.Workers)
		table(w, []string{
			"family", "fabric", "params", "k", "rpn", "auto composition",
			"auto", "best uniform", "uniform", "speedup",
		}, rows)
		if len(report.Training) > 0 {
			fmt.Fprintf(w, "\nauto-planned training anchor — %s, %d workers, %d epochs\n",
				cfg.TrainFamily, cfg.Workers, cfg.Epochs)
			trows := make([][]string, 0, len(report.Training))
			for _, t := range report.Training {
				trows = append(trows, []string{
					t.Fabric, fmt.Sprintf("%d", t.Buckets), fmt.Sprintf("%d", t.Topology),
					t.Composition,
					fmt.Sprintf("%.4f", t.FinalMetric),
					fmt.Sprintf("%.1f", t.AvgStepSec*1e6),
				})
			}
			table(w, []string{"fabric", "k", "rpn", "composition", "metric", "step-µs"}, trows)
		}
	}
	return report, nil
}
