package compress

import (
	"fmt"

	"a2sgd/internal/netsim"
)

// Built-in registrations: the baselines this package implements, plus the
// periodic wrapper. A2SGD and its ablation variants self-register from
// a2sgd/internal/core (which imports this package), so any binary linking
// core sees the full set.
//
// Every registration carries a CostModel hook so the planner and the auto
// policy can price the spec without building it. The EncSecPerElem constants
// are CPU estimates in the nanosecond-per-element range, ordered by the
// Figure-2 measurements (the packed quantizer and Gaussian-K's one-pass
// threshold are cheapest, the heap-selection and entropy-coding methods
// dearest); payload accounting mirrors each algorithm's PayloadBytes exactly.

// densityParam is the shared schema of the sparsifiers' selection fraction.
var densityParam = ParamSpec{
	Name: "density", Kind: ParamFloat,
	Doc: "selected fraction k/n in (0, 1] (default 0.001)",
}

// sparsifierCost prices a density-sparsified exchange: one error-feedback +
// selection pass over the bucket, 4·k value bytes on an allgather.
func sparsifierCost(encSecPerElem float64) func(o Options, args BuildArgs, _ []CostModel) CostModel {
	return func(o Options, args BuildArgs, _ []CostModel) CostModel {
		d := args.Float("density", o.Density)
		if d <= 0 || d > 1 {
			d = o.Density
		}
		return CostModel{
			EncSecPerElem: encSecPerElem,
			BytesPerElem:  4 * d,
			FixedBytes:    4, // the k >= 1 floor
			Kind:          netsim.ExchangeAllgatherV,
		}
	}
}

// sparsifier registers a density-parameterized leaf algorithm.
func sparsifier(summary string, encSecPerElem float64, ctor func(Options) Algorithm) Builder {
	return Builder{
		Summary: summary,
		Params:  []ParamSpec{densityParam},
		Build: func(o Options, args BuildArgs) (Algorithm, error) {
			o.Density = args.Float("density", o.Density)
			if o.Density <= 0 || o.Density > 1 {
				return nil, fmt.Errorf("density %g out of range (0, 1]", o.Density)
			}
			return ctor(o), nil
		},
		Cost: sparsifierCost(encSecPerElem),
	}
}

// qsgdBitsPerElem mirrors NewQSGD's field width: 1 sign bit plus the
// smallest level field holding s+1 values.
func qsgdBitsPerElem(levels int) int {
	if levels < 1 {
		levels = 1
	}
	bits := 1
	for (1 << bits) < levels+1 {
		bits++
	}
	return 1 + bits
}

// quantizer registers a levels-parameterized leaf algorithm.
func quantizer(summary string, encSecPerElem float64, bytesPerElem func(levels int) float64,
	kind netsim.ExchangeKind, ctor func(Options) Algorithm) Builder {
	return Builder{
		Summary: summary,
		Params: []ParamSpec{{
			Name: "levels", Kind: ParamInt,
			Doc: "quantization levels s >= 1 (default 4)",
		}},
		Build: func(o Options, args BuildArgs) (Algorithm, error) {
			o.QuantLevels = args.Int("levels", o.QuantLevels)
			if o.QuantLevels < 1 {
				return nil, fmt.Errorf("levels %d out of range (>= 1)", o.QuantLevels)
			}
			return ctor(o), nil
		},
		Cost: func(o Options, args BuildArgs, _ []CostModel) CostModel {
			levels := args.Int("levels", o.QuantLevels)
			return CostModel{
				EncSecPerElem: encSecPerElem,
				BytesPerElem:  bytesPerElem(levels),
				FixedBytes:    4, // the leading norm word
				Kind:          kind,
			}
		},
	}
}

func init() {
	Register("dense", Builder{
		Summary: "uncompressed allreduce-averaged SGD (baseline)",
		Build:   func(o Options, _ BuildArgs) (Algorithm, error) { return NewDense(o), nil },
		Cost: func(Options, BuildArgs, []CostModel) CostModel {
			// Encode is the identity — no local compression pass at all.
			return CostModel{BytesPerElem: 4, Kind: netsim.ExchangeAllreduce}
		},
	})
	// topk/qsgd EncSecPerElem reflect the post-zero-allocation measurements
	// (BENCH_hotpath.json: ~2.5x between the heap selection and the packed
	// quantizer at vgg16-scale buckets). Full measured calibration — feeding
	// NewIterModel's encode timings back into these hooks — is the ROADMAP
	// "measured cost models" follow-up.
	Register("topk", sparsifier("top-k magnitude sparsification with error feedback", 1e-8,
		func(o Options) Algorithm { return NewTopK(o) }))
	Register("gaussiank", sparsifier("Gaussian-threshold sparsification with error feedback", 5e-9,
		func(o Options) Algorithm { return NewGaussianK(o) }))
	Register("qsgd", quantizer("QSGD stochastic quantization, packed words", 4e-9,
		func(levels int) float64 { return float64(qsgdBitsPerElem(levels)) / 8 },
		netsim.ExchangeAllreduce,
		func(o Options) Algorithm { return NewQSGD(o) }))
	Register("qsgd-elias", quantizer("QSGD with Elias-gamma entropy coding", 9e-9,
		// Expected Elias-gamma length for Gaussian-like gradients (see
		// QSGDElias.PayloadBytes): ~2.8 bits per element.
		func(int) float64 { return 2.8 / 8 },
		netsim.ExchangeAllgather,
		func(o Options) Algorithm { return NewQSGDElias(o) }))
	Register("periodic", Builder{
		Summary: "round reduction wrapper: synchronize every interval-th step",
		Wraps:   1,
		Params: []ParamSpec{{
			Name: "interval", Kind: ParamInt,
			Doc: "steps between synchronizations, >= 1 (default 2)",
		}},
		Build: func(o Options, args BuildArgs) (Algorithm, error) {
			interval := args.Int("interval", 2)
			if interval < 1 {
				return nil, fmt.Errorf("interval %d out of range (>= 1)", interval)
			}
			return NewPeriodic(args.Inner[0], interval), nil
		},
		Cost: func(o Options, args BuildArgs, inner []CostModel) CostModel {
			// Amortized over the interval: the inner algorithm encodes and
			// exchanges on one step in k, the others are free local updates
			// (mirrors Periodic.PayloadBytes accounting).
			interval := args.Int("interval", 2)
			if interval < 1 {
				interval = 1
			}
			cm := inner[0]
			cm.EncSecPerElem /= float64(interval)
			cm.BytesPerElem /= float64(interval)
			cm.FixedBytes /= int64(interval)
			return cm
		},
	})
}
