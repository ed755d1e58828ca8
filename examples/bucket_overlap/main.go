// Command bucket_overlap demonstrates the bucketed, overlapped gradient
// pipeline: the same A2SGD run with one whole-model bucket versus four
// layer-granular buckets whose collectives are pipelined behind encode, and
// the overlap-aware iteration price on the paper's fabric.
package main

import (
	"fmt"

	"a2sgd"
)

func main() {
	base := a2sgd.TrainConfig{
		Family:  "fnn3",
		Spec:    "a2sgd",
		Workers: 4,
		Epochs:  3,
	}
	single, err := a2sgd.Train(base)
	if err != nil {
		panic(err)
	}

	bucketed := base
	bucketed.BucketBytes = 8192 // <= 8 KiB per bucket, split at layer bounds
	bucketed.Overlap = true     // pipeline bucket i's sync behind i+1's encode
	over, err := a2sgd.Train(bucketed)
	if err != nil {
		panic(err)
	}

	fmt.Printf("single bucket:  acc %.3f, %d bucket(s), %d B/step payload\n",
		single.FinalMetric(), single.Buckets, single.PayloadBytes)
	fmt.Printf("overlapped:     acc %.3f, %d bucket(s), %d B/step payload\n",
		over.FinalMetric(), over.Buckets, over.PayloadBytes)

	f := a2sgd.IB100()
	serial := over.ModeledIterSecSerial(f)
	pipelined := over.ModeledIterSecOverlap(f)
	fmt.Printf("modelled on %s: serial %.2fus, overlapped %.2fus (%.2fus of sync hidden)\n",
		f.Name, serial*1e6, pipelined*1e6, (serial-pipelined)*1e6)
}
