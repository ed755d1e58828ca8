// Per-bucket policy mixing: partition the model into gradient buckets and
// let a policy choose each bucket's synchronization algorithm — the
// composition experiment the paper's conclusion suggests. The mixed policy
// compresses the big buckets with A2SGD (O(1) payload each) while the small
// ones stay dense, landing between the two uniform extremes on traffic
// while staying near dense convergence.
package main

import (
	"fmt"
	"log"

	"a2sgd"
)

func main() {
	const bucketBytes = 8192 // layer-granular buckets of <= 8 KiB

	policies := []string{
		"uniform(dense)",
		"uniform(a2sgd)",
		"mixed(big=a2sgd, small=dense, threshold=8KiB)",
	}

	fmt.Printf("== FNN-3, 4 workers, buckets of %d bytes ==\n", bucketBytes)
	fmt.Printf("%-48s %-26s %10s %8s\n", "policy", "composition", "payload(B)", "top-1")
	for _, policy := range policies {
		res, err := a2sgd.Train(a2sgd.TrainConfig{
			Family: "fnn3", Spec: policy, Workers: 4,
			Epochs: 6, StepsPerEpoch: 12, BatchPerWorker: 8,
			Momentum: 0.9, Seed: 9,
			BucketBytes: bucketBytes, Overlap: true,
		})
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		fmt.Printf("%-48s %-26s %10d %8.3f\n",
			res.Policy, res.Algorithm, res.PayloadBytes, res.FinalMetric())
	}

	// Wrappers compose in specs too: round reduction on top of quantization.
	res, err := a2sgd.Train(a2sgd.TrainConfig{
		Family: "fnn3", Spec: "periodic(qsgd(levels=8), interval=4)", Workers: 4,
		Epochs: 6, StepsPerEpoch: 12, BatchPerWorker: 8, Momentum: 0.9, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspec %-42s avg payload %d B/step, top-1 %.3f\n",
		"periodic(qsgd(levels=8), interval=4):", res.PayloadBytes, res.FinalMetric())
}
