// Command a2sgdtrain runs one distributed training configuration and prints
// the per-epoch metric curve plus the synchronization cost breakdown.
//
// -spec fills a2sgd.TrainConfig.Spec: any registered algorithm spec,
// including parameters and wrappers; a per-bucket policy, uniform(spec) or
// mixed(…) (pair it with -bucket-bytes so there is more than one bucket to
// mix over); or "auto(spec, ..., fabric=name)", which hands the whole
// configuration — bucket boundaries, per-bucket specs, topology — to the
// cost-model planner, priced on the named network model (-bucket-bytes and
// -topology pin those axes).
//
// Usage:
//
//	a2sgdtrain -family fnn3 -spec a2sgd -workers 8 -epochs 10
//	a2sgdtrain -family lstm -spec "topk(density=0.01)" -workers 4
//	a2sgdtrain -spec "periodic(qsgd(levels=8), interval=4)"
//	a2sgdtrain -spec "mixed(big=a2sgd, small=dense, threshold=16KiB)" -bucket-bytes 8192
//	a2sgdtrain -spec "auto(fabric=nvlink+tcp10g)" -workers 8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"a2sgd"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
)

// useTCP reads -transport: tcp runs the worker group over loopback TCP,
// inproc over the in-process fabric, and anything else is a usage error
// rather than a silent in-process run.
func useTCP(transport string) (bool, error) {
	if transport != "inproc" && transport != "tcp" {
		return false, fmt.Errorf("bad -transport: unknown transport %q (have inproc, tcp)", transport)
	}
	return transport == "tcp", nil
}

func main() {
	family := flag.String("family", "fnn3", "model family: fnn3|vgg16|resnet20|lstm")
	spec := flag.String("spec", "a2sgd",
		"algorithm spec — registered: "+strings.Join(a2sgd.AlgorithmUsage(), ", ")+
			"; or a per-bucket policy — "+strings.Join(a2sgd.PolicyUsage(), ", ")+
			"; or auto(spec, ..., fabric="+strings.Join(netsim.FabricNames(), "|")+") to plan the schedule from the cost model")
	workers := flag.Int("workers", 4, "data-parallel worker count")
	epochs := flag.Int("epochs", 10, "training epochs")
	steps := flag.Int("steps", 16, "steps per epoch")
	batch := flag.Int("batch", 16, "batch size per worker")
	seed := flag.Uint64("seed", 1, "experiment seed")
	momentum := flag.Float64("momentum", 0.9, "SGD momentum")
	transport := flag.String("transport", "inproc", "worker fabric: inproc|tcp")
	faults := flag.String("faults", "",
		"fault-injection scenario, e.g. 'delay(link=0-1, alpha=200us, beta=1ns/B) straggler(rank=2, x3) crash(rank=3, step=5)' — rules: delay|bw|loss|dup|reorder|straggler|degrade|crash|stall|preempt|flap|partition, plus seed()/deadline()/retry()")
	bucketBytes := flag.Int("bucket-bytes", 0, "gradient bucket budget in bytes (0 = whole model)")
	overlap := flag.Bool("overlap", false, "pipeline per-bucket sync behind encode")
	concurrency := flag.Int("concurrency", 0, "concurrent bucket exchanges via comm tag-space contexts (0/1 = deterministic; requires -overlap)")
	interleave := flag.Bool("interleave", false, "launch bucket exchanges from inside the backward pass (requires -overlap)")
	topology := flag.Int("topology", 0, "two-level hierarchy width in ranks per node (0/1 = flat)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "snapshot full training state every k global steps (0 = off)")
	snapshotPath := flag.String("snapshot", "", "persist every snapshot to this A2SV file (atomic rewrite)")
	resumePath := flag.String("resume", "", "resume from an A2SV snapshot file (its world size wins over -workers)")
	flag.Parse()
	tcp, err := useTCP(*transport)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	tc := a2sgd.TrainConfig{
		Family: *family, Spec: *spec, Workers: *workers,
		Epochs: *epochs, StepsPerEpoch: *steps, BatchPerWorker: *batch,
		Seed: *seed, Momentum: float32(*momentum),
		TCP: tcp, Faults: *faults,
		BucketBytes: *bucketBytes, Overlap: *overlap, Topology: *topology,
		Concurrency: *concurrency, Interleave: *interleave,
		CheckpointEvery: *checkpointEvery, SnapshotPath: *snapshotPath, ResumePath: *resumePath,
	}

	res, err := a2sgd.Train(tc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}

	metric := "top-1 accuracy"
	if res.Metric == models.MetricPerplexity {
		metric = "perplexity"
	}
	fmt.Printf("model=%s algo=%s policy=%s workers=%d params=%d buckets=%d overlap=%v concurrency=%d interleave=%v topology=%d\n",
		res.Family, res.Algorithm, res.Policy, res.Workers, res.NumParams, res.Buckets, res.Overlap, res.Concurrency, res.Interleave, res.Topology)
	fmt.Printf("%-6s %-12s %-12s %-12s %s\n", "epoch", "train-loss", "eval-loss", metric, "lr")
	for _, e := range res.Epochs {
		fmt.Printf("%-6d %-12.4f %-12.4f %-12.4f %.5f\n", e.Epoch, e.Loss, e.EvalLoss, e.Metric, e.LR)
	}
	fmt.Printf("\ncost per step (rank 0):\n")
	fmt.Printf("  forward+backward : %8.3f ms\n", res.AvgComputeSec*1000)
	fmt.Printf("  compression      : %8.3f ms\n", res.AvgEncodeSec*1000)
	fmt.Printf("  sync (wall)      : %8.3f ms\n", res.AvgSyncSec*1000)
	fmt.Printf("  payload/worker   : %8d bytes (measured %.0f B/step on the wire)\n",
		res.PayloadBytes, res.BytesPerWorkerPerStep)
	ib := a2sgd.IB100()
	fmt.Printf("  modelled iter    : %8.3f ms on %s\n", res.ModeledIterSec(ib)*1000, ib.Name)
	if res.Topology > 1 {
		two := a2sgd.TwoTierIB100(res.Topology)
		fmt.Printf("  modelled iter    : %8.3f ms on %s (ranks/node=%d)\n",
			res.ModeledIterSec(two)*1000, two.Name, res.Topology)
	}
}
