// Compression comparison: run every registered algorithm — the paper's
// comparator set (dense, Top-K, Gaussian-K, QSGD) and the A2SGD ablations —
// on one model and one gradient vector, showing compute cost, payload size
// and convergence side by side.
package main

import (
	"fmt"
	"log"
	"time"

	"a2sgd"
	"a2sgd/internal/tensor"
)

func main() {
	// Part 1: local compression cost + payload on a 5M-parameter gradient.
	const n = 5_000_000
	g := make([]float32, n)
	tensor.NewRNG(1).NormVec(g, 0, 0.05)

	fmt.Printf("== local compression of a %d-parameter gradient ==\n", n)
	fmt.Printf("%-14s %12s %14s\n", "algorithm", "encode (ms)", "payload (B)")
	for _, name := range a2sgd.Algorithms() {
		if b, ok := a2sgd.Lookup(name); ok && b.Wraps > 0 {
			continue // wrappers (periodic) compose leaves; nothing to time here
		}
		alg, err := a2sgd.NewAlgorithm(name, a2sgd.DefaultOptions(n))
		if err != nil {
			log.Fatal(err)
		}
		alg.Encode(g) // warm-up allocations
		t0 := time.Now()
		p := alg.Encode(g)
		ms := time.Since(t0).Seconds() * 1000
		fmt.Printf("%-14s %12.2f %14d\n", name, ms, p.Bits/8)
	}

	// Part 2: convergence of the main algorithms plus the A2SGD ablations
	// on FNN-3 — demonstrating why the error vector and the two-level
	// (rather than single) mean matter.
	// Sparsifiers use density 0.05 here: the paper's 0.001 is tuned for
	// multi-million-parameter models and would select single-digit k on
	// this reduced one.
	fmt.Println("\n== convergence on FNN-3, 4 workers, 6 epochs ==")
	for _, spec := range []string{"dense", "a2sgd", "a2sgd-noef", "a2sgd-onemean", "topk(density=0.05)", "gaussiank(density=0.05)", "qsgd"} {
		res, err := a2sgd.Train(a2sgd.TrainConfig{
			Family: "fnn3", Spec: spec, Workers: 4,
			Epochs: 6, StepsPerEpoch: 12, BatchPerWorker: 8,
			Momentum: 0.9, Seed: 9,
		})
		if err != nil {
			log.Fatalf("%s: %v", spec, err)
		}
		fmt.Printf("%-23s final top-1 accuracy %.3f\n", spec, res.FinalMetric())
	}
}
