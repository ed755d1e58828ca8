package main

// workload is one row of the benchmark. The sizes are part of the
// benchmark's definition: a change that claims a gain may not edit them.
type workload struct {
	name string

	// train-*: a cluster.Train round.
	train           bool
	family          string
	policy          string // per-bucket policy spec lowered into the schedule
	bucketBytes     int
	overlap         bool
	interleave      bool
	concurrency     int
	checkpointEvery int
	epochs          int
	stepsPerEpoch   int
	// cycle is the period, in steps, of the round's periodic work: an epoch's
	// evaluation, a checkpoint. cluster.steps_per_s is taken over whole cycles.
	cycle int
	// targetRatio states the quality target: eval loss at most this share of
	// the eval loss after the first epoch.
	targetRatio float64

	// sync-*: the harness's own encode → post → wait loop, no model.
	spec    string
	elems   int
	buckets int
	chunk   int // timed steps the harness asks for at a time; the unit of cluster.steps_per_s
	// targetSteps is the sync workloads' target: this many steps synchronise
	// 1 GiB of gradient per worker.
	targetSteps int

	tcp bool
	// priceModel marks the workloads whose exchange is mostly wire time, where
	// the α–β model's prediction can be held against the measurement.
	priceModel bool
	// fastest makes the workload report its fastest step, cycle and set-up
	// instead of medians: the arithmetic-bound workloads, on which the host's
	// two speeds are further apart than any bound (quiet.go).
	fastest bool
	// wireBytes is the exact number of bytes one rank sends in one step.
	wireBytes float64
	// scaled marks the smoke test's shrunken copy, which leaves out the direct
	// calls: their sizes do not shrink with the workload.
	scaled bool
}

const (
	workers = 2
	warmup  = 3 // untimed steps that grow instance scratch
	// cycleStride is how many steps apart the stretches start that
	// cluster.steps_per_s of a training round is taken over.
	cycleStride = 8
	batchSize   = 16
	gradStddev  = 0.05
)

var workloads = []workload{
	{
		name:  "train-vgg16",
		train: true, family: "vgg16", policy: "a2sgd",
		epochs: 8, stepsPerEpoch: 64, cycle: 64, targetRatio: 0.8675,
		fastest: true, wireBytes: 8,
	},
	{
		name:  "train-lstm-pipeline",
		train: true, family: "lstm", policy: "mixed(big=a2sgd, small=dense, threshold=4KiB)",
		bucketBytes: 8192, overlap: true, interleave: true, concurrency: 2, checkpointEvery: 64,
		epochs: 16, stepsPerEpoch: 32, cycle: 64, targetRatio: 0.90,
		tcp: true, priceModel: true, fastest: true, wireBytes: 800,
	},
	{
		name: "sync-a2sgd",
		spec: "a2sgd", elems: 4 << 20, buckets: 4, chunk: 8, targetSteps: 64,
		tcp: true, wireBytes: 32,
	},
	{
		name: "sync-dense",
		spec: "dense", elems: 4 << 20, buckets: 4, chunk: 32, targetSteps: 64,
		tcp: true, priceModel: true, wireBytes: 16 << 20,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// small returns the workload at the smoke test's scale.
func (w workload) small() *workload {
	w.scaled = true
	if w.train {
		w.epochs, w.stepsPerEpoch, w.cycle, w.checkpointEvery = 2, 8, 8, min(w.checkpointEvery, 4)
		w.targetRatio = 2 // sixteen steps do not converge; the target only has to be reachable
	} else {
		w.elems, w.chunk = 64<<10, 8
		if w.spec == "dense" {
			w.wireBytes = float64(4 * w.elems)
		}
	}
	return &w
}

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every --trace 0 run prints, perLayer the ones
// every --trace 1 run prints. BENCHMARK.json repeats both lists with bounds;
// the smoke test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"step_ms", "ms"},
	{"wire_bytes_per_worker_step", "B"},
	{"time_to_target_s", "s"},
}

var perLayer = []metricDef{
	{"tensor.signed_means_ns_per_elem", "ns/elem"},
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"compress.encode_ms", "ms"},
	{"compress.exchange_ms", "ms"},
	{"compress.exchange_self_ms", "ms"},
	{"compress.payload_bytes_per_step", "B"},
	{"compress.encode_ns_per_elem.a2sgd", "ns/elem"},
	{"compress.encode_ns_per_elem.topk", "ns/elem"},
	{"compress.encode_ns_per_elem.gaussiank", "ns/elem"},
	{"compress.encode_ns_per_elem.qsgd", "ns/elem"},
	{"compress.encode_ns_per_elem.qsgd-elias", "ns/elem"},
	{"compress.decode_ns_per_elem.qsgd", "ns/elem"},
	{"compress.decode_ns_per_elem.qsgd-elias", "ns/elem"},
	{"comm.post_us", "us"},
	{"comm.wait_ms", "ms"},
	{"comm.hidden_share", "ratio"},
	{"comm.msgs_per_step", "count"},
	{"comm.bytes_per_step", "B"},
	{"comm.allreduce_ms.inproc.4MiB", "ms"},
	{"comm.allreduce_ms.tcp.4MiB", "ms"},
	{"comm.allreduce_us.inproc.8B", "us"},
	{"comm.allreduce_us.tcp.8B", "us"},
	{"tcpnet.send_ms", "ms"},
	{"tcpnet.recv_wait_ms", "ms"},
	{"tcpnet.sendrecv_MBps.4MiB", "MB/s"},
	{"tcpnet.rtt_us.8B", "us"},
	{"cluster.step_ms_p50", "ms"},
	{"cluster.step_ms_p95", "ms"},
	{"cluster.steps_per_s", "1/s"},
	{"cluster.compute_ms", "ms"},
	{"cluster.encode_ms", "ms"},
	{"cluster.sync_exposed_ms", "ms"},
	{"cluster.other_ms", "ms"},
	{"cluster.eval_ms", "ms"},
	{"cluster.steps_to_target", "count"},
	{"cluster.final_eval_loss", "nat"},
	{"cluster.single_worker_step_ms", "ms"},
	{"cluster.vs_single_worker", "ratio"},
	{"cluster.allocs_per_step", "count"},
	{"cluster.allocs_per_step_noprobe", "count"},
	{"cluster.heap_peak_mb", "MB"},
	{"nn.step_ms.vgg16", "ms"},
	{"nn.step_ms.lstm", "ms"},
	{"optim.update_ns_per_param", "ns/param"},
	{"elastic.snapshot_ms", "ms"},
	{"elastic.snapshot_bytes", "B"},
	{"elastic.stall_share", "ratio"},
	{"plan.build_ms", "ms"},
	{"netsim.pred_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"bench.steal_share", "ratio"},
}
