// LSTM-PTB workload: the paper's headline case (66 M parameters, where
// A2SGD improves total training time 3.2× vs Top-K and 23.2× vs QSGD).
// This example trains the reduced LSTM language model with every evaluated
// algorithm, reports perplexity, and prices the full 66 M-parameter
// synchronization on the modelled 100 Gbps fabric.
package main

import (
	"fmt"
	"log"

	"a2sgd"
)

func main() {
	const workers = 4
	fmt.Println("== LSTM-PTB workload: perplexity per algorithm ==")

	type outcome struct {
		name string
		ppl  float64
		res  *a2sgd.Result
	}
	var outs []outcome
	for _, algo := range a2sgd.EvaluatedAlgorithms() {
		res, err := a2sgd.Train(a2sgd.TrainConfig{
			Family:         "lstm",
			Spec:           algo,
			Workers:        workers,
			Epochs:         6,
			StepsPerEpoch:  12,
			BatchPerWorker: 8,
			Seed:           3,
		})
		if err != nil {
			log.Fatalf("%s: %v", algo, err)
		}
		outs = append(outs, outcome{algo, res.FinalMetric(), res})
		fmt.Printf("%-10s final perplexity %8.2f  payload %8d B/worker\n",
			algo, res.FinalMetric(), res.PayloadBytes)
	}

	// Price the paper-scale exchange: 66 M parameters on 100 Gbps IB.
	paperN, err := a2sgd.PaperParamCount("lstm")
	if err != nil {
		log.Fatal(err)
	}
	ib := a2sgd.IB100()
	fmt.Printf("\nmodelled sync time for the full %d-parameter LSTM (%d workers, %s):\n",
		paperN, workers, ib.Name)
	for _, o := range outs {
		alg, err := a2sgd.NewAlgorithm(o.name, a2sgd.DefaultOptions(paperN))
		if err != nil {
			log.Fatal(err)
		}
		sync := ib.SyncTime(alg.ExchangeKind(), alg.PayloadBytes(paperN), workers)
		fmt.Printf("  %-10s %12.3f ms  (%d bytes/worker)\n",
			o.name, sync*1000, alg.PayloadBytes(paperN))
	}
}
