package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/data"
	"a2sgd/internal/health"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/plan"
	"a2sgd/internal/stats"
)

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
	// Buckets is the per-bucket algorithm state (error feedback, RNG
	// streams, periodic step counters), parallel to RunState.Bounds.
	Buckets []compress.State
}

// Config describes one distributed training run.
type Config struct {
	// Workers is the data-parallel width P, fixed for the duration of one
	// Train call; an elastic supervisor changes it between calls.
	Workers int
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
	// Health, when non-nil, receives every rank's per-send timings as the
	// comm layer observes them. The monitor's world must equal Workers.
	// Recorders write into preallocated rings, so the beacons keep the
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
	// (0 for static runs; the elastic supervisor stamps it).
	MembershipEpoch int
	// FinalParams is rank 0's flattened weights, in Params() order, after
	// Algorithm 1's final dense synchronization — the trained model every
	// replica holds, and the bitwise fingerprint of a run.
	FinalParams []float32

	// Cost components, averaged per training step (rank 0).
	AvgComputeSec float64 // forward + backward
	// AvgEncodeSec is the compression compute per step (Figure 2's
	// quantity), summed across buckets. Buckets encode one after another on
	// the rank's goroutine, so it is also the step's wall-clock encode time.
	AvgEncodeSec float64
	// AvgSyncSec is the wall time the step spent blocked on the collective:
	// the full collective time on the synchronous path, only the *exposed*
	// (non-hidden) time when Overlap pipelines sync behind encode.
	AvgSyncSec float64
	// AvgStepSec is the measured end-to-end wall time of one training step
	// (draw + compute + encode + sync + optimizer).
	AvgStepSec float64

	// Buckets is the gradient-pipeline bucket count (1 = whole model), and
	// BucketBounds its cumulative offsets (len Buckets+1). Overlap records
	// whether exchanges were pipelined with encode, Concurrency the
	// number of tag-space contexts they ran under (1 = deterministic) and
	// Interleave whether launches were folded into the backward pass.
	Buckets      int
	BucketBounds []int
	Overlap      bool
	Concurrency  int
	Interleave   bool
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
// + modelled synchronization of the full per-worker payload as one fused
// collective per exchange kind. A run whose buckets all use one kind pays
// one collective of PayloadBytes; under a mixing policy each kind carries
// the payload of its own buckets.
func (r *Result) ModeledIterSec(f netsim.Pricer) float64 {
	sync := f.SyncTime(r.ExchangeKind, r.PayloadBytes, r.Workers)
	kinds := r.BucketExchangeKinds
	mixed := func(k netsim.ExchangeKind) bool { return k != r.ExchangeKind }
	if len(kinds) == len(r.BucketPayloadBytes) && slices.ContainsFunc(kinds, mixed) {
		sync = 0
		for i, k := range kinds {
			if slices.Index(kinds, k) < i {
				continue // this kind's collective is already priced
			}
			var bytes int64
			for b, kb := range kinds {
				if kb == k {
					bytes += r.BucketPayloadBytes[b]
				}
			}
			sync += f.SyncTime(k, bytes, r.Workers)
		}
	}
	return r.AvgComputeSec + r.AvgEncodeSec + sync
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
	return r.AvgComputeSec + netsim.PriceSchedule(f, r.bucketKinds(), enc, bytes, r.Workers).Pipelined
}

// ModeledIterSecSerial prices the same bucketed step without overlap: every
// per-bucket encode and collective runs back to back. The gap to
// ModeledIterSecOverlap is exactly the sync time the pipeline hides; the gap
// to ModeledIterSec (one fused collective) is the per-bucket latency that
// bucketing pays and fusion avoids.
func (r *Result) ModeledIterSecSerial(f netsim.Pricer) float64 {
	enc, bytes := r.bucketCosts()
	return r.AvgComputeSec + netsim.PriceSchedule(f, r.bucketKinds(), enc, bytes, r.Workers).Serial
}

func (c *Config) defaults() Config {
	cfg := *c
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

// validate checks everything about a defaulted Config that can be checked
// before a worker exists, so a bad run fails here and not inside the group.
func (cfg *Config) validate() error {
	sched := cfg.Schedule
	if sched == nil {
		return fmt.Errorf("cluster: Config.Schedule is required — plan one with plan.Build, or lower a spec or policy string with cluster.Lower")
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	if sched.Workers != 0 && sched.Workers != cfg.Workers {
		return fmt.Errorf("cluster: schedule planned for %d workers, run configured for %d", sched.Workers, cfg.Workers)
	}
	// Pre-build every scheduled spec so construction errors surface here,
	// not inside the worker group.
	for _, s := range sched.Specs {
		if _, err := compress.Build(s, compress.DefaultOptions(4)); err != nil {
			return err
		}
	}
	// The schedule owns the pipeline shape. Concurrency and Interleave are
	// runtime-execution knobs, not plan state.
	if cfg.Concurrency < 0 || cfg.Concurrency > comm.MaxConcurrency {
		return fmt.Errorf("cluster: Concurrency %d out of range [0,%d]", cfg.Concurrency, comm.MaxConcurrency)
	}
	if cfg.Concurrency > 1 && !sched.Overlap {
		return fmt.Errorf("cluster: Concurrency > 1 requires Overlap (there is nothing to run concurrently on the synchronous path)")
	}
	if cfg.Interleave && !sched.Overlap {
		return fmt.Errorf("cluster: Interleave requires Overlap")
	}
	totalSteps := cfg.Epochs * cfg.StepsPerEpoch
	if rs := cfg.Resume; rs != nil {
		if rs.Family != cfg.Family {
			return fmt.Errorf("cluster: snapshot is for family %q, run configured for %q", rs.Family, cfg.Family)
		}
		if rs.Seed != cfg.Seed {
			return fmt.Errorf("cluster: snapshot seed %d != run seed %d", rs.Seed, cfg.Seed)
		}
		if rs.StepsPerEpoch != cfg.StepsPerEpoch {
			return fmt.Errorf("cluster: snapshot StepsPerEpoch %d != run %d", rs.StepsPerEpoch, cfg.StepsPerEpoch)
		}
		if len(rs.Workers) != cfg.Workers || rs.World != cfg.Workers {
			return fmt.Errorf("cluster: snapshot holds %d workers, run configured for %d (reshard it first)", rs.World, cfg.Workers)
		}
		if rs.Step < 0 || rs.Step > totalSteps {
			return fmt.Errorf("cluster: snapshot step %d outside run bounds [0, %d]", rs.Step, totalSteps)
		}
	}
	if cfg.StopStep < 0 || (cfg.StopStep > 0 && cfg.StopStep >= totalSteps) {
		return fmt.Errorf("cluster: StopStep %d outside (0, %d)", cfg.StopStep, totalSteps)
	}
	if cfg.Health != nil && cfg.Health.World() != cfg.Workers {
		return fmt.Errorf("cluster: health monitor world %d != workers %d", cfg.Health.World(), cfg.Workers)
	}
	return nil
}

// divergedFirst puts the lowest diverged rank's error first in a group
// error that holds one. When several ranks diverge in one step, whose
// finite check fails first is a race; the lowest rank is not. Any other
// group error is returned as it is, root cause first.
func divergedFirst(err error) error {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return err
	}
	errs := joined.Unwrap()
	first, rank := -1, 0
	for i, e := range errs {
		var de *DivergenceError
		if errors.As(e, &de) && (first < 0 || de.Rank < rank) {
			first, rank = i, de.Rank
		}
	}
	if first <= 0 {
		return err
	}
	out := append([]error{errs[first]}, errs[:first]...)
	return errors.Join(append(out, errs[first+1:]...)...)
}

// Train runs the distributed training loop and returns rank 0's view: it
// validates the configuration, runs one worker per rank over the group's
// communicators and averages the ranks' traffic into the result.
func Train(c Config) (*Result, error) {
	cfg := c.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	img, txt, err := data.ForFamily(cfg.Family, cfg.Seed)
	if err != nil {
		return nil, err
	}
	j := &job{
		cfg: cfg, img: img, txt: txt,
		totalSteps: cfg.Epochs * cfg.StepsPerEpoch,
		res:        &Result{Family: cfg.Family, Workers: cfg.Workers, HistIters: cfg.HistIters},
		snapSlots:  make([]atomic.Pointer[WorkerState], cfg.Workers),
	}
	if cfg.Resume != nil {
		j.startStep = cfg.Resume.Step
	}
	runGroup := cfg.GroupRunner
	if runGroup == nil {
		runGroup = comm.RunGroup
	}
	err = runGroup(cfg.Workers, func(cm *comm.Communicator) error {
		w, err := newWorker(j, cm)
		if err != nil {
			return err
		}
		return w.run()
	})
	if err != nil {
		return nil, divergedFirst(err)
	}
	if steps := j.totalSteps - j.startStep; steps > 0 {
		j.res.BytesPerWorkerPerStep = float64(j.sent.Load()) / float64(cfg.Workers) / float64(steps)
	}
	return j.res, nil
}
