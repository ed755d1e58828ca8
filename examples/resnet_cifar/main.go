// ResNet/CIFAR-style workload: residual CNN on synthetic textured images,
// comparing A2SGD's convergence against dense SGD across worker counts —
// the paper's Figure 3/6–8 experiment for one model family.
package main

import (
	"fmt"
	"log"

	"a2sgd"
)

func main() {
	fmt.Println("== ResNet-20 (reduced) on synthetic CIFAR-like textures ==")
	for _, workers := range []int{2, 4, 8} {
		fmt.Printf("\n-- %d workers --\n", workers)
		for _, algo := range []string{"dense", "a2sgd", "topk"} {
			res, err := a2sgd.Train(a2sgd.TrainConfig{
				Family:         "resnet20",
				Spec:           algo,
				Workers:        workers,
				Epochs:         5,
				StepsPerEpoch:  10,
				BatchPerWorker: 8,
				Momentum:       0.9,
				Seed:           5,
			})
			if err != nil {
				log.Fatalf("%s/%d: %v", algo, workers, err)
			}
			fmt.Printf("%-8s accuracy per epoch:", algo)
			for _, e := range res.Epochs {
				fmt.Printf(" %.2f", e.Metric)
			}
			fmt.Printf("   (payload %d B/worker)\n", res.PayloadBytes)
		}
	}
}
