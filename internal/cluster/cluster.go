package cluster

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/data"
	"a2sgd/internal/health"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
	"a2sgd/internal/optim"
	"a2sgd/internal/plan"
	"a2sgd/internal/stats"
	"a2sgd/internal/tensor"
)

// Membership is a dynamic view of the worker group, maintained by an elastic
// supervisor across rescale events. Train samples it once at entry — the
// world size is fixed for the duration of one Train call (one membership
// epoch); growing or shrinking means checkpointing, resharding and calling
// Train again at the new size.
type Membership interface {
	// WorldSize returns the current live worker count.
	WorldSize() int
	// Epoch returns the membership epoch — incremented every time the live
	// set changes. Recorded in Result for provenance.
	Epoch() int
}

// ErrPaused is returned (by every rank) when a run stops at a checkpoint
// boundary before completing — because StopStep was reached or the Drain
// channel was closed. The final snapshot delivered to SnapshotSink holds
// everything needed to resume. It wraps comm.ErrGroupStop so group runners
// join the remaining ranks instead of fail-fast tearing the fabric down
// under the pause barrier.
var ErrPaused error = pausedError{}

type pausedError struct{}

func (pausedError) Error() string { return "cluster: training paused at a checkpoint boundary" }
func (pausedError) Unwrap() error { return comm.ErrGroupStop }

// RunState is a full-fidelity snapshot of a training run at a step boundary:
// resuming from it reproduces the uninterrupted run bitwise (same world size
// and bucket plan) or deterministically (after resharding). It is captured by
// the step loop at checkpoint boundaries and consumed via Config.Resume.
type RunState struct {
	// Family, Seed, Epochs and StepsPerEpoch echo the originating Config —
	// a resume must match them.
	Family                string
	Seed                  uint64
	Epochs, StepsPerEpoch int
	// Step is the boundary the snapshot was taken at: steps [0, Step) are
	// complete and the resumed run executes steps [Step, Epochs·StepsPerEpoch).
	Step int
	// World is the worker count the snapshot was captured at, NumParams the
	// flattened parameter count and Bounds the bucket boundaries in effect
	// (compress.RemapStates re-buckets algorithm state when a resumed run
	// plans different bounds).
	World     int
	NumParams int
	Bounds    []int
	// History is rank 0's per-epoch record up to the boundary.
	History []EpochStats
	// Workers holds one entry per rank.
	Workers []*WorkerState
}

// WorkerState is one rank's slice of a RunState.
type WorkerState struct {
	Rank int
	// Params and ModelState are the flattened weights and non-learnable
	// model state (batch-norm running statistics), positionally serialized.
	Params     []float32
	ModelState []float32
	// Velocity is the optimizer's momentum, flattened in params order.
	Velocity []float32
	// SampleRNG is the rank's data-sampling RNG state.
	SampleRNG [4]uint64
	// LossSum is the rank's running loss accumulator within the current
	// epoch (feeds rank 0's EpochStats when resuming mid-epoch).
	LossSum float64
	// Buckets is the per-bucket algorithm state (error feedback, DGC
	// accumulators, RNG streams), parallel to RunState.Bounds.
	Buckets []compress.State
}

// Config describes one distributed training run.
type Config struct {
	// Workers is the data-parallel width P. When Membership is non-nil it is
	// overridden by the membership's current world size.
	Workers int
	// Membership, when non-nil, supplies the worker count dynamically (one
	// sample per Train call) and tags the Result with the membership epoch.
	Membership Membership
	// Family selects the model family ("fnn3", "vgg16", "resnet20", "lstm").
	Family string
	// Concurrency is the number of comm tag-space contexts the overlap path
	// may use (comm.SetConcurrency): 0 or 1 keeps the Deterministic mode —
	// one progress worker, exchanges strictly in posting order, bitwise
	// identical to the synchronous path — and n>1 lets up to n bucket
	// exchanges proceed concurrently in disjoint tag blocks. Per-bucket
	// arithmetic is unchanged either way (each bucket owns its algorithm
	// instance and operates on a disjoint gradient range), so concurrent
	// runs converge identically; only the wire interleaving differs.
	Concurrency int
	// Interleave launches a bucket's exchange during the backward pass, as
	// soon as backprop has finalized the bucket's gradient range (deepest
	// layers first), instead of after the whole backward — hiding
	// synchronization behind the remaining compute as well as behind encode.
	// Requires Schedule.Overlap. Histogram-capture steps fall back to the
	// post-backward launch on every rank (the capture needs the raw local
	// gradient before any exchange rewrites it).
	Interleave bool
	// Schedule is the run's synchronization plan (required), and the only way
	// to say which algorithm runs on which slice of the gradient: bucket
	// boundaries, one algorithm spec per bucket, the two-level hierarchy
	// width and the overlap flag (see the package comment for what each
	// does to the step). plan.Build prices one from a network model; Lower
	// writes down the one a spec or policy string and the hand-picked bucket
	// budget, topology width and overlap flag denote.
	Schedule *plan.Schedule
	// Epochs and StepsPerEpoch bound the run.
	Epochs, StepsPerEpoch int
	// BatchPerWorker is each worker's shard of the global mini-batch.
	BatchPerWorker int
	// SeqLen is the LSTM sequence length (ignored otherwise; default 12).
	SeqLen int
	// Seed controls model init, data generation and per-worker sampling.
	Seed uint64
	// Momentum and WeightDecay configure the optimizer.
	Momentum, WeightDecay float32
	// HistIters lists global step indices at which rank 0 captures the
	// local-gradient histogram (Figure 1). Nil disables capture.
	HistIters []int
	// EvalBatch is the held-out evaluation size (default 256).
	EvalBatch int
	// LRScale multiplies the Table-1 schedule (default 1). Reduced-scale
	// calibration knob; the paper-scale schedules stay in optim.PolicyFor.
	LRScale float64
	// GroupRunner launches the worker group. Nil uses the in-process
	// channel fabric (comm.RunGroup); tests substitute a TCP-backed runner
	// to exercise training over a real network stack.
	GroupRunner func(size int, body func(*comm.Communicator) error) error
	// Checkpoint, when non-nil, receives the final synchronized model
	// weights (rank 0, nn checkpoint format) after training completes.
	Checkpoint io.Writer
	// SnapshotSink, when non-nil, receives full-state snapshots (rank 0,
	// after a group-wide barrier): one at the run's start (fresh runs only),
	// one every CheckpointEvery steps, and one at a StopStep/Drain pause.
	// The sink must not retain the RunState past the call unless it copies
	// it — though every slice inside is deep-copied from live state, so
	// retaining is in fact safe; the elastic runtime does.
	SnapshotSink func(*RunState) error
	// CheckpointEvery takes a snapshot at every multiple of this many global
	// steps (0 disables periodic snapshots; the initial and pause snapshots
	// still fire when SnapshotSink is set).
	CheckpointEvery int
	// Resume, when non-nil, restores a RunState instead of initializing
	// fresh: weights, optimizer and RNG state come from the snapshot (the
	// rank-0 setup broadcast is skipped) and the loop starts at Resume.Step.
	// The snapshot must have been captured — or resharded — at this run's
	// worker count.
	Resume *RunState
	// StopStep, when > 0, pauses the run at that global-step boundary:
	// a snapshot is delivered to SnapshotSink and every rank returns
	// ErrPaused. The elastic runtime uses it to admit joiners at a
	// deterministic boundary.
	StopStep int
	// Drain, when non-nil, is polled by rank 0 at checkpoint boundaries;
	// once it is closed the group snapshots and returns ErrPaused. The
	// drain decision is broadcast from rank 0, so all ranks agree without
	// changing any training arithmetic.
	Drain <-chan struct{}
	// Health, when non-nil, receives per-rank timing beacons: per-step
	// encode/sync/step wall times plus per-send and per-operation timings
	// observed by the comm layer. The monitor's world must equal Workers.
	// Recorders write into preallocated rings, so beacons keep the
	// steady-state step allocation-free.
	Health *health.Monitor
}

// EpochStats reports one epoch's training loss and held-out metric.
type EpochStats struct {
	Epoch    int
	Loss     float64 // mean training loss across steps (rank 0)
	EvalLoss float64
	Metric   float64 // accuracy (higher better) or perplexity (lower better)
	LR       float64
}

// Result aggregates a training run.
type Result struct {
	Family    string
	Algorithm string
	Workers   int
	NumParams int
	Metric    models.Metric
	Epochs    []EpochStats
	// MembershipEpoch is the elastic membership epoch the run executed under
	// (0 for static runs).
	MembershipEpoch int

	// Cost components, averaged per training step (rank 0).
	AvgComputeSec float64 // forward + backward
	// AvgEncodeSec is the compression compute per step (Figure 2's
	// quantity), summed across buckets. It is aggregate encode CPU time:
	// when the overlap path encodes buckets on the parallel worker pool,
	// the per-bucket durations overlap in wall time, so this can exceed
	// the wall-clock encode window (and includes contention).
	AvgEncodeSec float64
	// AvgSyncSec is the wall time the step spent blocked on the collective:
	// the full collective time on the synchronous path, only the *exposed*
	// (non-hidden) time when Overlap pipelines sync behind encode.
	AvgSyncSec float64
	// AvgStepSec is the measured end-to-end wall time of one training step
	// (compute + gather + encode + sync + scatter + optimizer).
	AvgStepSec float64

	// Buckets is the gradient-pipeline bucket count (1 = whole model), and
	// BucketBounds its cumulative offsets (len Buckets+1). Overlap records
	// whether exchanges were pipelined with gather/encode, Concurrency the
	// number of tag-space contexts they ran under (1 = deterministic),
	// Interleave whether launches were folded into the backward pass, and
	// DirectBuckets how many buckets were exchanged in place with no gather
	// or scatter copy — since the strided-view pipeline, always equal to
	// Buckets (the invariant the concurrency tests assert).
	Buckets       int
	BucketBounds  []int
	Overlap       bool
	Concurrency   int
	Interleave    bool
	DirectBuckets int
	// Topology is the hierarchy width the run used (ranks per node after
	// clamping; 0 = flat).
	Topology int
	// BucketPayloadBytes is the analytic per-worker payload of each bucket,
	// the input to the overlap-aware network model.
	BucketPayloadBytes []int64
	// BucketExchangeKinds is each bucket's dominant collective. Under a
	// mixing policy the buckets differ (dense buckets allreduce, sparse
	// buckets allgather); the modelled price laws account each bucket under
	// its own kind. Empty means every bucket uses ExchangeKind.
	BucketExchangeKinds []netsim.ExchangeKind
	// Policy is the schedule's policy string: the policy a lowered schedule
	// came from, the auto policy's spec for a planned one.
	Policy string

	// BytesPerWorkerPerStep is the measured payload sent per worker per
	// step, averaged across all ranks (from the traffic counters). The
	// average matters under a two-level Topology, where node leaders send
	// strictly more than other ranks; flat ring collectives are symmetric,
	// so there every rank matches the average anyway.
	BytesPerWorkerPerStep float64
	// PayloadBytes is the analytic per-worker payload (Table 2 column 3).
	PayloadBytes int64
	// ExchangeKind feeds the α–β model.
	ExchangeKind netsim.ExchangeKind

	// Histograms holds the Figure 1 captures (rank 0), parallel to
	// HistIters.
	Histograms []*stats.Histogram
	HistIters  []int
}

// FinalMetric returns the last epoch's held-out metric.
func (r *Result) FinalMetric() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	return r.Epochs[len(r.Epochs)-1].Metric
}

// ModeledIterSec prices one training iteration on the given network model
// (a flat netsim.Fabric or a hierarchical netsim.TwoTier) with the serial
// (non-overlapped) cost law: measured compute + measured compression
// + modelled synchronization of the full per-worker payload.
func (r *Result) ModeledIterSec(f netsim.Pricer) float64 {
	return r.AvgComputeSec + r.AvgEncodeSec + f.SyncTime(r.ExchangeKind, r.PayloadBytes, r.Workers)
}

// bucketCosts apportions the measured encode time across buckets by element
// count (encode cost is O(bucket length) for every evaluated algorithm) and
// returns it alongside the per-bucket payload bytes.
func (r *Result) bucketCosts() (enc []float64, bytes []int64) {
	bytes = r.BucketPayloadBytes
	bounds := r.BucketBounds
	if len(bytes) == 0 || len(bounds) != len(bytes)+1 {
		bytes = []int64{r.PayloadBytes}
		bounds = []int{0, r.NumParams}
	}
	enc = make([]float64, len(bytes))
	if n := bounds[len(bounds)-1]; n > 0 {
		for b := range enc {
			enc[b] = r.AvgEncodeSec * float64(bounds[b+1]-bounds[b]) / float64(n)
		}
	}
	return enc, bytes
}

// bucketKinds returns the per-bucket exchange kinds for the price laws,
// falling back to the aggregate ExchangeKind when the run predates (or
// didn't populate) the per-bucket record.
func (r *Result) bucketKinds() []netsim.ExchangeKind {
	if len(r.BucketExchangeKinds) > 0 {
		return r.BucketExchangeKinds
	}
	return []netsim.ExchangeKind{r.ExchangeKind}
}

// ModeledIterSecOverlap prices one iteration when per-bucket synchronization
// is pipelined behind encode (the Overlap step loop): compute plus the
// makespan of the encode→sync pipeline, in which bucket i's collective is
// hidden behind the encoding of later buckets. With a single bucket it
// degenerates to ModeledIterSec.
func (r *Result) ModeledIterSecOverlap(f netsim.Pricer) float64 {
	enc, bytes := r.bucketCosts()
	return r.AvgComputeSec + f.PipelinedSyncTimeKinds(r.bucketKinds(), enc, bytes, r.Workers)
}

// ModeledIterSecSerial prices the same bucketed step without overlap: every
// per-bucket encode and collective runs back to back. The gap to
// ModeledIterSecOverlap is exactly the sync time the pipeline hides; the gap
// to ModeledIterSec (one fused collective) is the per-bucket latency that
// bucketing pays and fusion avoids.
func (r *Result) ModeledIterSecSerial(f netsim.Pricer) float64 {
	enc, bytes := r.bucketCosts()
	return r.AvgComputeSec + f.SerialSyncTimeKinds(r.bucketKinds(), enc, bytes, r.Workers)
}

// Throughput returns modelled samples/second at the run's worker count.
func (r *Result) Throughput(f netsim.Pricer, batchPerWorker int) float64 {
	it := r.ModeledIterSec(f)
	if it <= 0 {
		return 0
	}
	return float64(batchPerWorker*r.Workers) / it
}

// bucketExchangeOp is the typed, pooled unit of work the step loop posts to
// the communicator (comm.Post): one bucket's collective exchange. The step
// loop owns an array of nb of these and re-fills them in place every step,
// so posting a bucket never allocates — posting a *bucketExchangeOp converts
// to comm.Op without boxing. RunOp receives the tag-space context
// communicator the operation was assigned to. The exchange reconstructs
// directly into the bucket's gradient view (the layers' live storage).
type bucketExchangeOp struct {
	bk *compress.Bucketed
	b  int
	p  compress.Payload
	v  *tensor.VecView
}

func (o *bucketExchangeOp) RunOp(c *comm.Communicator) error {
	return o.bk.ExchangeBucketView(o.b, o.p, o.v, c)
}

func (c *Config) defaults() Config {
	cfg := *c
	if cfg.Membership != nil {
		cfg.Workers = cfg.Membership.WorldSize()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.StepsPerEpoch <= 0 {
		cfg.StepsPerEpoch = 10
	}
	if cfg.BatchPerWorker <= 0 {
		cfg.BatchPerWorker = 16
	}
	if cfg.SeqLen <= 0 {
		cfg.SeqLen = 12
	}
	if cfg.EvalBatch <= 0 {
		cfg.EvalBatch = 256
	}
	return cfg
}

// Lower writes down the schedule a hand-picked configuration denotes: the
// family's parameter segments cut into layer-granular buckets of at most
// bucketBytes bytes (0 = one whole-model bucket), every bucket on the spec
// the policy — "mixed(big=a2sgd, small=dense, threshold=64KiB)", or a plain
// algorithm spec such as "topk(density=0.01)" as shorthand for uniform(spec) —
// picks for it, the given hierarchy width (ranks per node, 0 or 1 = flat) and
// overlap flag. The schedule is not bound to a worker count, so an elastic job
// keeps it across world-size changes.
func Lower(family, policy string, bucketBytes, topology int, overlap bool) (*plan.Schedule, error) {
	pol, err := compress.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	m, err := models.New(models.Config{Family: family, Seed: 1, Reduced: true})
	if err != nil {
		return nil, err
	}
	return plan.Lower(m.ParamSegments(), pol, bucketBytes, topology, overlap, 0), nil
}

// Train runs the distributed training loop and returns rank 0's view.
func Train(c Config) (*Result, error) {
	cfg := c.defaults()
	sched := cfg.Schedule
	if sched == nil {
		return nil, fmt.Errorf("cluster: Config.Schedule is required — plan one with plan.Build, or lower a spec or policy string with cluster.Lower")
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if sched.Workers != 0 && sched.Workers != cfg.Workers {
		return nil, fmt.Errorf("cluster: schedule planned for %d workers, run configured for %d", sched.Workers, cfg.Workers)
	}
	// Pre-build every scheduled spec so construction errors surface here,
	// not inside the worker group.
	for _, s := range sched.Specs {
		if _, err := compress.Build(s, compress.DefaultOptions(4)); err != nil {
			return nil, err
		}
	}
	// The schedule owns the pipeline shape. Concurrency and Interleave are
	// runtime-execution knobs, not plan state.
	overlap, topology := sched.Overlap, sched.Topology
	if cfg.Concurrency < 0 || cfg.Concurrency > comm.MaxConcurrency {
		return nil, fmt.Errorf("cluster: Concurrency %d out of range [0,%d]", cfg.Concurrency, comm.MaxConcurrency)
	}
	if cfg.Concurrency > 1 && !overlap {
		return nil, fmt.Errorf("cluster: Concurrency > 1 requires Overlap (there is nothing to run concurrently on the synchronous path)")
	}
	if cfg.Interleave && !overlap {
		return nil, fmt.Errorf("cluster: Interleave requires Overlap")
	}
	totalSteps := cfg.Epochs * cfg.StepsPerEpoch
	if rs := cfg.Resume; rs != nil {
		if rs.Family != cfg.Family {
			return nil, fmt.Errorf("cluster: snapshot is for family %q, run configured for %q", rs.Family, cfg.Family)
		}
		if rs.Seed != cfg.Seed {
			return nil, fmt.Errorf("cluster: snapshot seed %d != run seed %d", rs.Seed, cfg.Seed)
		}
		if rs.StepsPerEpoch != cfg.StepsPerEpoch {
			return nil, fmt.Errorf("cluster: snapshot StepsPerEpoch %d != run %d", rs.StepsPerEpoch, cfg.StepsPerEpoch)
		}
		if len(rs.Workers) != cfg.Workers || rs.World != cfg.Workers {
			return nil, fmt.Errorf("cluster: snapshot holds %d workers, run configured for %d (reshard it first)", rs.World, cfg.Workers)
		}
		if rs.Step < 0 || rs.Step > totalSteps {
			return nil, fmt.Errorf("cluster: snapshot step %d outside run bounds [0, %d]", rs.Step, totalSteps)
		}
	}
	if cfg.StopStep < 0 || (cfg.StopStep > 0 && cfg.StopStep >= totalSteps) {
		return nil, fmt.Errorf("cluster: StopStep %d outside (0, %d)", cfg.StopStep, totalSteps)
	}
	if cfg.Health != nil && cfg.Health.World() != cfg.Workers {
		return nil, fmt.Errorf("cluster: health monitor world %d != workers %d", cfg.Health.World(), cfg.Workers)
	}

	img, txt, err := data.ForFamily(cfg.Family, cfg.Seed)
	if err != nil {
		return nil, err
	}

	res := &Result{Family: cfg.Family, Workers: cfg.Workers, HistIters: cfg.HistIters}
	var resMu sync.Mutex
	if cfg.Membership != nil {
		res.MembershipEpoch = cfg.Membership.Epoch()
	}
	// Per-rank sent bytes, collected after the last step (disjoint indices,
	// read only after the group joins) and averaged into the result.
	perRankSent := make([]int64, cfg.Workers)
	// Per-rank snapshot slots: at a checkpoint boundary every rank deep-copies
	// its state into its slot, the group barriers, and rank 0 assembles the
	// RunState for the sink. Disjoint indices; the barrier orders the writes
	// before rank 0's read in real time, but over loopback TCP that ordering
	// flows through the kernel, which the Go memory model does not recognize —
	// the slots are atomic pointers so the intra-process handoff has an
	// explicit edge. All supported group runners (in-process channels,
	// loopback TCP, the fault mesh) run every rank in this process, so the
	// shared slice is visible to all of them.
	snapSlots := make([]atomic.Pointer[WorkerState], cfg.Workers)

	runGroup := cfg.GroupRunner
	if runGroup == nil {
		runGroup = comm.RunGroup
	}
	groupErr := runGroup(cfg.Workers, func(cm *comm.Communicator) error {
		rank := cm.Rank()
		// Two-level topology: partition the ranks into nodes so every
		// collective below — per-bucket exchanges, the setup broadcast, the
		// final dense sync — runs the hierarchical schedule.
		if topology > 1 {
			if err := cm.SetTopology(topology); err != nil {
				return err
			}
		}
		// Tag-space contexts for concurrent bucket exchanges. After the
		// topology call so the shadow contexts replay the same splits.
		if cfg.Concurrency > 1 {
			if err := cm.SetConcurrency(cfg.Concurrency); err != nil {
				return err
			}
		}
		// Timing beacons: install after topology/concurrency so every derived
		// communicator inherits the observers. Method values are built once
		// here — the hot path calls them without allocating.
		var rec *health.Recorder
		if cfg.Health != nil {
			rec = cfg.Health.Recorder(rank)
			cm.SetSendObserver(rec.ObserveSend)
			cm.SetOpObserver(rec.ObserveOp)
		}
		model, err := models.New(models.Config{Family: cfg.Family, Seed: cfg.Seed, Reduced: true})
		if err != nil {
			return err
		}
		n := model.NumParams()

		// Cut the flattened gradient at the scheduled (layer-granular) bounds
		// and build one algorithm instance per bucket — per-bucket error
		// feedback, seeds and A2SGD means — from the scheduled specs
		// (validated above). compress.BucketSeed keeps the historical
		// per-rank seed on bucket 0 and decorrelates the later buckets'
		// stochastic streams.
		bplan, err := nn.PlanFromBounds(model.ParamSegments(), sched.Bounds)
		if err != nil {
			return fmt.Errorf("cluster: schedule does not fit %s: %w", cfg.Family, err)
		}
		bucketed := compress.NewBucketed(bplan.Bounds(), func(b, bn int) compress.Algorithm {
			o := compress.DefaultOptions(bn)
			o.Seed = compress.BucketSeed(cfg.Seed, rank, b)
			a, err := compress.Build(sched.Specs[b], o)
			if err != nil {
				panic(fmt.Sprintf("cluster: pre-validated schedule spec failed to build: %v", err))
			}
			return a
		})
		bounds := bucketed.Bounds()
		nb := bucketed.NumBuckets()

		if cfg.Resume == nil {
			// Broadcast rank 0's weights so replicas start identical even if
			// a model family ever gains non-deterministic init.
			w := make([]float32, n)
			model.GatherParams(w)
			if err := cm.Broadcast(w, 0); err != nil {
				return err
			}
			model.ScatterParams(w)
		} else if cfg.Resume.NumParams != n {
			return fmt.Errorf("cluster: snapshot has %d params, model %s has %d", cfg.Resume.NumParams, cfg.Family, n)
		}
		// The setup broadcast is not part of the per-step algorithm cost.
		cm.ResetTraffic()

		lrSched, useLARS := optim.PolicyFor(cfg.Family, cfg.Workers)
		momentum := cfg.Momentum
		lrScale := 1.0
		if cfg.LRScale > 0 {
			lrScale = cfg.LRScale
		}
		if cfg.Family == "lstm" {
			// Reduced-scale calibration: the paper's LR 22 is tuned for the
			// 66 M-parameter PTB model; the reduced LM needs a smaller rate
			// and, like the paper's LSTM runs, plain SGD without momentum.
			momentum = 0
			lrScale *= 0.25
		}
		opt := optim.NewSGD(momentum, cfg.WeightDecay)
		opt.LARS = useLARS

		sampleRNG := tensor.NewRNG(cfg.Seed*1000 + uint64(rank) + 1)
		grad := make([]float32, n)
		reqScratch := make([]comm.Request, 0, nb)
		exchangeOps := make([]bucketExchangeOp, nb)

		// Every bucket is direct: its view spans the layers' live gradient
		// storage across however many parameter tensors the range covers, so
		// encode reads — and the exchange reconstructs into — that storage
		// with no gather copy before and no scatter copy after, regardless
		// of where the bucket boundaries fall.
		viewStore := make([]tensor.VecView, nb)
		bucketView := make([]*tensor.VecView, nb)
		for b := 0; b < nb; b++ {
			bucketView[b] = model.GradView(bounds[b], bounds[b+1], &viewStore[b])
		}

		// encodeBucket checks bucket b's live gradient view is finite and
		// encodes it in place, returning the payload and the encode duration.
		// The serial loop, the parallel worker pool and the interleaved
		// backward callbacks all run exactly this.
		encodeBucket := func(b int) (compress.Payload, float64, error) {
			bv := bucketView[b]
			if bv.HasNaNOrInf() {
				return compress.Payload{}, 0, fmt.Errorf("cluster: worker %d produced a non-finite gradient (diverged — lower the learning rate)", rank)
			}
			t1 := time.Now()
			p := bucketed.EncodeBucketView(b, bv)
			return p, time.Since(t1).Seconds(), nil
		}

		// postBucket fills bucket b's pooled op and posts its exchange.
		postBucket := func(b int, p compress.Payload) comm.Request {
			exchangeOps[b] = bucketExchangeOp{bk: bucketed, b: b, p: p, v: bucketView[b]}
			return cm.Post(&exchangeOps[b])
		}

		// Parallel bucket encode (overlap path): a worker pool gathers and
		// encodes buckets concurrently — every bucket owns its algorithm
		// instance, scratch and RNG stream, so the encoded payloads are
		// bitwise identical to serial encoding — while the step loop below
		// enqueues each bucket's exchange in strict bucket order as soon as
		// that bucket's encode lands. The collectives therefore launch in
		// the same deterministic order with the same operands as the serial
		// path (the bitwise-determinism tests cover both). The pool is
		// sized by this process's share of the CPUs: in-process experiments
		// run all cfg.Workers ranks in one process, so each rank claiming
		// GOMAXPROCS workers would only oversubscribe.
		encWorkers := 0
		if overlap && !cfg.Interleave && nb > 1 {
			if w := runtime.GOMAXPROCS(0) / cfg.Workers; w > 1 {
				encWorkers = w
				if encWorkers > nb {
					encWorkers = nb
				}
			}
		}
		var (
			encPayloads []compress.Payload
			encDur      []float64
			encErr      []error
			encDone     []chan struct{}
			encWork     chan int
		)
		if encWorkers > 0 {
			encPayloads = make([]compress.Payload, nb)
			encDur = make([]float64, nb)
			encErr = make([]error, nb)
			encDone = make([]chan struct{}, nb)
			for b := range encDone {
				encDone[b] = make(chan struct{}, 1)
			}
			encWork = make(chan int, nb)
			for w := 0; w < encWorkers; w++ {
				go func() {
					for b := range encWork {
						encPayloads[b], encDur[b], encErr[b] = encodeBucket(b)
						encDone[b] <- struct{}{}
					}
				}()
			}
			defer close(encWork)
		}

		var evalSet models.Batch
		if rank == 0 {
			if img != nil {
				evalSet = img.EvalSet(cfg.EvalBatch, cfg.Seed)
			} else {
				evalSet = txt.EvalSet(cfg.EvalBatch/4+1, cfg.SeqLen, cfg.Seed)
			}
		}

		var computeSec, encodeSec, syncSec, stepSec float64
		var epochs []EpochStats
		var hists []*stats.Histogram
		histAt := map[int]bool{}
		for _, it := range cfg.HistIters {
			histAt[it] = true
		}
		startStep := 0
		var lossSum float64
		if rs := cfg.Resume; rs != nil {
			ws := rs.Workers[rank]
			if ws == nil || len(ws.Params) != n {
				return fmt.Errorf("cluster: snapshot worker %d does not hold %d params", rank, n)
			}
			model.ScatterParams(ws.Params)
			if sl := model.StateLen(); sl > 0 && len(ws.ModelState) == sl {
				model.ScatterState(ws.ModelState)
			}
			if len(ws.Velocity) == n {
				opt.ScatterVelocity(model.Params(), ws.Velocity)
			}
			sampleRNG.SetState(ws.SampleRNG)
			if len(rs.Bounds) >= 2 {
				bucketed.LoadStates(compress.RemapStates(ws.Buckets, rs.Bounds, bounds))
			}
			startStep = rs.Step
			lossSum = ws.LossSum
			if rank == 0 {
				epochs = append(epochs, rs.History...)
			}
		}
		globalStep := startStep
		steps := 0

		// captureState deep-copies this rank's full training state; the
		// snapshot stays valid while the rank trains on.
		captureState := func() *WorkerState {
			ws := &WorkerState{Rank: rank, SampleRNG: sampleRNG.State(), LossSum: lossSum}
			ws.Params = make([]float32, n)
			model.GatherParams(ws.Params)
			if sl := model.StateLen(); sl > 0 {
				ws.ModelState = make([]float32, sl)
				model.GatherState(ws.ModelState)
			}
			ws.Velocity = make([]float32, n)
			opt.GatherVelocity(model.Params(), ws.Velocity)
			ws.Buckets = bucketed.SaveStates()
			return ws
		}
		// deliverSnapshot captures every rank's state at boundary step (all
		// ranks call it collectively), barriers so the slot writes are
		// ordered before rank 0's read, and hands rank 0's assembled
		// RunState to the sink.
		deliverSnapshot := func(step int) error {
			snapSlots[rank].Store(captureState())
			if err := cm.Barrier(); err != nil {
				return fmt.Errorf("cluster: snapshot barrier at step %d: %w", step, err)
			}
			if rank != 0 {
				return nil
			}
			ws := make([]*WorkerState, len(snapSlots))
			for i := range snapSlots {
				ws[i] = snapSlots[i].Load()
			}
			rs := &RunState{
				Family: cfg.Family, Seed: cfg.Seed,
				Epochs: cfg.Epochs, StepsPerEpoch: cfg.StepsPerEpoch,
				Step: step, World: cfg.Workers, NumParams: n,
				Bounds:  append([]int(nil), bounds...),
				History: append([]EpochStats(nil), epochs...),
				Workers: ws,
			}
			if err := cfg.SnapshotSink(rs); err != nil {
				return fmt.Errorf("cluster: snapshot sink at step %d: %w", step, err)
			}
			return nil
		}

		var drainFlag [1]float32
		var lr float64
		for g := startStep; ; g++ {
			// g is a step boundary: steps [0, g) are complete on every rank.
			// Pause/snapshot decisions happen here so a delivered snapshot is
			// always at a clean boundary.
			pause := cfg.StopStep > 0 && g == cfg.StopStep
			if cfg.Drain != nil && !pause && g > startStep && g < totalSteps &&
				(cfg.CheckpointEvery <= 0 || g%cfg.CheckpointEvery == 0) {
				drainFlag[0] = 0
				if rank == 0 {
					select {
					case <-cfg.Drain:
						drainFlag[0] = 1
					default:
					}
				}
				if err := cm.Broadcast(drainFlag[:], 0); err != nil {
					return fmt.Errorf("cluster: drain poll at step %d: %w", g, err)
				}
				pause = drainFlag[0] != 0
			}
			if cfg.SnapshotSink != nil {
				snap := pause ||
					(g == startStep && cfg.Resume == nil) ||
					(g > startStep && g < totalSteps && cfg.CheckpointEvery > 0 && g%cfg.CheckpointEvery == 0)
				if snap {
					if err := deliverSnapshot(g); err != nil {
						return err
					}
				}
			}
			if pause {
				return ErrPaused
			}
			if g == totalSteps {
				break
			}
			if g == startStep || g%cfg.StepsPerEpoch == 0 {
				lr = lrSched.LR(g/cfg.StepsPerEpoch, cfg.Epochs) * lrScale
				if g%cfg.StepsPerEpoch == 0 {
					lossSum = 0
				}
			}
			globalStep = g
			{
				encMark, syncMark, stepMark := encodeSec, syncSec, stepSec
				var batch models.Batch
				if img != nil {
					batch = img.Sample(sampleRNG, cfg.BatchPerWorker)
				} else {
					batch = txt.Sample(sampleRNG, cfg.BatchPerWorker, cfg.SeqLen)
				}
				// Tell step-aware transports (faultnet) a new training step
				// begins, so step-scoped faults (crash/stall at step k) fire
				// on the step boundary. A no-op on plain transports.
				cm.AdvanceStep()
				model.ZeroGrads()
				// Histogram steps take the post-backward launch path on
				// EVERY rank (the capture needs the raw local gradient
				// before any exchange rewrites it — exchanges reconstruct
				// into the live storage the views alias — and the posting
				// order must stay identical across ranks: concurrent
				// contexts are assigned by posting sequence). Only rank 0
				// actually gathers and captures.
				histStep := histAt[globalStep]
				reqs := reqScratch[:0]
				t0 := time.Now()
				var loss float64
				if cfg.Interleave && !histStep {
					// Backprop-interleaved launch: encode and post each
					// bucket from inside the backward pass as soon as its
					// gradient range is final, deepest buckets first. The
					// exchange proceeds on the progress workers while the
					// shallower layers are still back-propagating.
					next := nb - 1
					var encFail error
					var inlineEnc float64
					loss = model.StepInterleaved(batch, func(lo int) {
						if encFail != nil {
							return
						}
						for next >= 0 && bounds[next] >= lo {
							p, dur, err := encodeBucket(next)
							if err != nil {
								encFail = err
								return
							}
							inlineEnc += dur
							reqs = append(reqs, postBucket(next, p))
							next--
						}
					})
					// The encode time spent inside the backward callbacks
					// is compression cost, not model compute.
					computeSec += time.Since(t0).Seconds() - inlineEnc
					encodeSec += inlineEnc
					lossSum += loss
					if encFail != nil {
						_ = comm.WaitAll(reqs) // drain in-flight buckets first
						return fmt.Errorf("%w (step %d)", encFail, globalStep)
					}
				} else {
					loss = model.Step(batch)
					computeSec += time.Since(t0).Seconds()
					lossSum += loss

					// Figure-1 capture needs the raw local gradient in one
					// piece, copied before any exchange reconstructs into
					// the live storage.
					if histStep && rank == 0 {
						model.GatherGrads(grad)
						h := stats.NewHistogram(-0.25, 0.25, 101)
						h.AddSlice(grad)
						hists = append(hists, h)
					}

					// Bucketed gradient pipeline: encode bucket b in place
					// through its view and either run its collective inline
					// (synchronous) or post it to the communicator's
					// progress workers so it proceeds while bucket b+1 is
					// encoded. With encode workers, encoding of all buckets
					// fans out across the pool and the exchanges are still
					// enqueued in bucket order as each encode completes.
					if encWorkers > 0 {
						for b := 0; b < nb; b++ {
							encWork <- b
						}
						for b := 0; b < nb; b++ {
							<-encDone[b]
							if err := encErr[b]; err != nil {
								encErr[b] = nil
								for b2 := b + 1; b2 < nb; b2++ { // drain the step's remaining tokens
									<-encDone[b2]
								}
								_ = comm.WaitAll(reqs) // drain in-flight buckets first
								return fmt.Errorf("%w (step %d)", err, globalStep)
							}
							encodeSec += encDur[b]
							reqs = append(reqs, postBucket(b, encPayloads[b]))
						}
					} else {
						for b := 0; b < nb; b++ {
							payload, dur, err := encodeBucket(b)
							if err != nil {
								_ = comm.WaitAll(reqs) // drain in-flight buckets first
								return fmt.Errorf("%w (step %d)", err, globalStep)
							}
							encodeSec += dur
							if overlap {
								reqs = append(reqs, postBucket(b, payload))
							} else {
								t2 := time.Now()
								if err := bucketed.ExchangeBucketView(b, payload, bucketView[b], cm); err != nil {
									return fmt.Errorf("cluster: step %d bucket %d sync: %w", globalStep, b, err)
								}
								syncSec += time.Since(t2).Seconds()
							}
						}
					}
				}
				if overlap {
					t2 := time.Now()
					if err := comm.WaitAll(reqs); err != nil {
						return fmt.Errorf("cluster: step %d sync: %w", globalStep, err)
					}
					syncSec += time.Since(t2).Seconds()
					reqScratch = reqs
				}
				// Every exchange reconstructed in place through its bucket
				// view — there is nothing to scatter back.
				opt.Step(model.Params(), lr)
				stepSec += time.Since(t0).Seconds()
				if rec != nil {
					rec.RecordStep(encodeSec-encMark, syncSec-syncMark, stepSec-stepMark)
				}
				steps++
			}
			if (g+1)%cfg.StepsPerEpoch == 0 && rank == 0 {
				evalLoss, metric := model.Eval(evalSet)
				epochs = append(epochs, EpochStats{
					Epoch: g / cfg.StepsPerEpoch, Loss: lossSum / float64(cfg.StepsPerEpoch),
					EvalLoss: evalLoss, Metric: metric, LR: lr,
				})
			}
		}

		// Snapshot traffic before the final dense synchronization so the
		// per-step accounting reflects the algorithm, not the epilogue.
		perRankSent[rank] = cm.Traffic().BytesSent

		// Algorithm 1, lines 9–10: one final dense synchronization so all
		// replicas end identical (A2SGD replicas drift by design).
		model.GatherParams(grad) // reuse the gradient buffer as scratch
		if err := cm.AllreduceMean(grad, comm.AlgoAuto); err != nil {
			return fmt.Errorf("cluster: final dense synchronization: %w", err)
		}
		model.ScatterParams(grad)

		if rank == 0 && cfg.Checkpoint != nil {
			if err := nn.SaveParams(cfg.Checkpoint, model.Params()); err != nil {
				return fmt.Errorf("cluster: checkpoint: %w", err)
			}
		}

		if rank == 0 {
			resMu.Lock()
			res.Algorithm = bucketed.Name()
			res.NumParams = n
			res.Metric = model.Metric()
			res.Epochs = epochs
			// A resume at the final boundary runs no step: the averages stay 0.
			if steps > 0 {
				res.AvgComputeSec = computeSec / float64(steps)
				res.AvgEncodeSec = encodeSec / float64(steps)
				res.AvgSyncSec = syncSec / float64(steps)
				res.AvgStepSec = stepSec / float64(steps)
			}
			res.PayloadBytes = bucketed.PayloadBytes(n)
			res.ExchangeKind = bucketed.ExchangeKind()
			res.Buckets = nb
			res.BucketBounds = append([]int(nil), bounds...)
			res.Overlap = overlap
			res.Concurrency = cm.Concurrency()
			res.Interleave = cfg.Interleave
			res.DirectBuckets = nb
			res.Topology = cm.Topology()
			res.BucketPayloadBytes = bucketed.PayloadBytesPerBucket()
			res.BucketExchangeKinds = bucketed.ExchangeKinds()
			res.Policy = sched.Policy
			res.Histograms = hists
			resMu.Unlock()
		}
		return nil
	})
	if groupErr != nil {
		return nil, groupErr
	}
	var sentSum int64
	for _, b := range perRankSent {
		sentSum += b
	}
	steps := totalSteps
	if cfg.Resume != nil {
		steps -= cfg.Resume.Step
	}
	if steps > 0 {
		res.BytesPerWorkerPerStep = float64(sentSum) / float64(cfg.Workers) / float64(steps)
	}
	return res, nil
}
