package cluster

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/data"
	"a2sgd/internal/models"
	"a2sgd/internal/nn"
	"a2sgd/internal/optim"
	"a2sgd/internal/stats"
	"a2sgd/internal/tensor"
)

// job is what the ranks of one Train call share.
type job struct {
	cfg Config // defaults applied, validated
	img *data.Images
	txt *data.Text
	// The run executes steps [startStep, totalSteps); startStep is the
	// resumed snapshot's boundary, 0 for a fresh run.
	startStep, totalSteps int
	// res is rank 0's view of the run, written by its finish and read by
	// Train after the group joins.
	res *Result
	// sent sums the ranks' sent bytes, each added after its last step.
	sent atomic.Int64
	// Per-rank snapshot slots: at a checkpoint boundary every rank deep-copies
	// its state into its slot, the group barriers, and rank 0 assembles the
	// RunState for the sink. Disjoint indices; the barrier orders the writes
	// before rank 0's read in real time, but over loopback TCP that ordering
	// flows through the kernel, which the Go memory model does not recognize —
	// the slots are atomic pointers so the intra-process handoff has an
	// explicit edge. All supported group runners (in-process channels,
	// loopback TCP, the fault mesh) run every rank in this process, so the
	// shared slice is visible to all of them.
	snapSlots []atomic.Pointer[WorkerState]
}

// worker is one rank of a run: Algorithm 1's loop body (step) between the
// boundaries where a run pauses, snapshots and changes its learning rate.
type worker struct {
	*job
	cm   *comm.Communicator
	rank int

	model     models.Model
	n         int // flattened parameter count
	opt       *optim.SGD
	lrSched   optim.Schedule
	lrScale   float64
	sampleRNG *tensor.RNG
	pipe      *pipeline

	// The rank's tensors as flattened vectors, in model.Params() order: the
	// layers' live weights, gradients and non-learnable state, and the
	// optimizer's momentum. Everything that crosses the rank's boundary — a
	// collective, a snapshot, the Figure 1 capture — is a copy through one of
	// these.
	weights, grads, state, velocity tensor.VecView
	// scratch holds n floats, the contiguous buffer a collective needs: the
	// setup broadcast's and the final dense synchronization's weights, and
	// the Figure 1 capture's gradient. Rank 0's ends the run as
	// Result.FinalParams.
	scratch []float32

	batch     models.Batch // the step's samples, refilled in place every step
	evalSet   models.Batch // rank 0
	hists     []*stats.Histogram
	epochs    []EpochStats
	lr        float64
	lossSum   float64
	drainFlag [1]float32

	// Accumulated over the run, beside the pipeline's encode and sync times.
	computeSec, stepSec float64
}

// newWorker sets one rank up on its communicator: communicator shape, model
// replica, per-bucket algorithms, optimizer, and either the setup broadcast
// or the resumed snapshot's state.
func newWorker(j *job, cm *comm.Communicator) (*worker, error) {
	cfg, sched := &j.cfg, j.cfg.Schedule
	w := &worker{job: j, cm: cm, rank: cm.Rank()}
	// Two-level topology: partition the ranks into nodes so every
	// collective below — per-bucket exchanges, the setup broadcast, the
	// final dense sync — runs the hierarchical schedule.
	if sched.Topology > 1 {
		if err := cm.SetTopology(sched.Topology); err != nil {
			return nil, err
		}
	}
	// Tag-space contexts for concurrent bucket exchanges. After the
	// topology call so the contexts replay the same splits.
	if cfg.Concurrency > 1 {
		if err := cm.SetConcurrency(cfg.Concurrency); err != nil {
			return nil, err
		}
	}
	// Send beacons: SetSendObserver reaches the communicators derived so
	// far and derive hands the observer to later ones, so the order
	// against topology/concurrency does not matter. The method value is
	// built once here — the hot path calls it without allocating.
	if cfg.Health != nil {
		cm.SetSendObserver(cfg.Health.Recorder(w.rank).ObserveSend)
	}
	model, err := models.New(models.Config{Family: cfg.Family, Seed: cfg.Seed, Reduced: true})
	if err != nil {
		return nil, err
	}
	w.model, w.n = model, model.NumParams()
	w.scratch = make([]float32, w.n)
	nn.WeightViewOf(model.Params(), &w.weights)
	nn.GradViewOf(model.Params(), &w.grads)
	w.state.Reset(model.State())

	// Cut the flattened gradient at the scheduled (layer-granular) bounds
	// and build one algorithm instance per bucket — per-bucket error
	// feedback, seeds and A2SGD means — from the scheduled specs
	// (validated by Train). compress.BucketSeed keeps the historical
	// per-rank seed on bucket 0 and decorrelates the later buckets'
	// stochastic streams.
	bplan, err := nn.PlanFromBounds(model.ParamSegments(), sched.Bounds)
	if err != nil {
		return nil, fmt.Errorf("cluster: schedule does not fit %s: %w", cfg.Family, err)
	}
	bucketed := compress.NewBucketed(bplan.Bounds(), func(b, bn int) compress.Algorithm {
		o := compress.DefaultOptions(bn)
		o.Seed = compress.BucketSeed(cfg.Seed, w.rank, b)
		a, err := compress.Build(sched.Specs[b], o)
		if err != nil {
			panic(fmt.Sprintf("cluster: pre-validated schedule spec failed to build: %v", err))
		}
		return a
	})

	if cfg.Resume == nil {
		// Broadcast rank 0's weights so replicas start identical even if
		// a model family ever gains non-deterministic init.
		w.weights.CopyTo(w.scratch)
		if err := cm.Broadcast(w.scratch, 0); err != nil {
			return nil, err
		}
		w.weights.CopyFrom(w.scratch)
	} else if cfg.Resume.NumParams != w.n {
		return nil, fmt.Errorf("cluster: snapshot has %d params, model %s has %d", cfg.Resume.NumParams, cfg.Family, w.n)
	}
	// The setup broadcast is not part of the per-step algorithm cost.
	cm.ResetTraffic()

	momentum := cfg.Momentum
	w.lrScale = 1
	if cfg.LRScale > 0 {
		w.lrScale = cfg.LRScale
	}
	if cfg.Family == "lstm" {
		// Reduced-scale calibration: the paper's LR 22 is tuned for the
		// 66 M-parameter PTB model; the reduced LM needs a smaller rate
		// and, like the paper's LSTM runs, plain SGD without momentum.
		momentum = 0
		w.lrScale *= 0.25
	}
	w.opt = optim.NewSGD(momentum, cfg.WeightDecay)
	w.lrSched, w.opt.LARS = optim.PolicyFor(cfg.Family, cfg.Workers)
	w.velocity.Reset(w.opt.Velocity(model.Params()))
	w.sampleRNG = tensor.NewRNG(cfg.Seed*1000 + uint64(w.rank) + 1)

	if w.rank == 0 {
		if j.img != nil {
			w.evalSet = j.img.EvalSet(cfg.EvalBatch, cfg.Seed)
		} else {
			w.evalSet = j.txt.EvalSet(cfg.EvalBatch/4+1, cfg.SeqLen, cfg.Seed)
		}
	}
	if rs := cfg.Resume; rs != nil {
		ws := rs.Workers[w.rank]
		if ws == nil || len(ws.Params) != w.n {
			return nil, fmt.Errorf("cluster: snapshot worker %d does not hold %d params", w.rank, w.n)
		}
		w.weights.CopyFrom(ws.Params)
		// An absent field means fresh batch-norm statistics / zero momentum;
		// one of the wrong length is a truncated or foreign snapshot.
		for _, f := range []struct {
			name string
			src  []float32
			dst  *tensor.VecView
		}{{"ModelState", ws.ModelState, &w.state}, {"Velocity", ws.Velocity, &w.velocity}} {
			if len(f.src) == 0 {
				continue
			}
			if len(f.src) != f.dst.Len() {
				return nil, fmt.Errorf("cluster: snapshot worker %d holds %d %s values, model %s has %d",
					w.rank, len(f.src), f.name, cfg.Family, f.dst.Len())
			}
			f.dst.CopyFrom(f.src)
		}
		w.sampleRNG.SetState(ws.SampleRNG)
		if len(rs.Bounds) >= 2 {
			bucketed.LoadStates(compress.RemapStates(ws.Buckets, rs.Bounds, bucketed.Bounds()))
		}
		w.lossSum = ws.LossSum
		if w.rank == 0 {
			w.epochs = append(w.epochs, rs.History...)
		}
	}
	w.pipe = newPipeline(cm, bucketed, &w.grads, sched.Overlap)
	return w, nil
}

// run is the rank's whole life after setup.
func (w *worker) run() error {
	spe := w.cfg.StepsPerEpoch
	for g := w.startStep; g < w.totalSteps; g++ {
		if err := w.boundary(g); err != nil {
			return err
		}
		if err := w.step(g); err != nil {
			return err
		}
		if (g+1)%spe == 0 && w.rank == 0 {
			evalLoss, metric := w.model.Eval(w.evalSet)
			w.epochs = append(w.epochs, EpochStats{
				Epoch: g / spe, Loss: w.lossSum / float64(spe),
				EvalLoss: evalLoss, Metric: metric, LR: w.lr,
			})
		}
	}
	return w.finish()
}

// boundary runs before step g, when steps [0, g) are complete on every rank:
// pause, drain and snapshot decisions happen here so a delivered snapshot is
// always at a clean boundary, and an epoch's first boundary sets its learning
// rate. A pause returns ErrPaused.
func (w *worker) boundary(g int) error {
	cfg := &w.cfg
	pause := cfg.StopStep > 0 && g == cfg.StopStep
	if !pause {
		// Tell step-aware transports (faultnet) that step g begins, so its
		// step-scoped faults (crash/preempt/stall at step g) fire here, before
		// this boundary's drain poll and snapshot: a rule at a checkpoint step
		// stops the rank before that checkpoint exists, on every run. A
		// StopStep pause runs no step g and advances nothing. A no-op on plain
		// transports.
		w.cm.AdvanceStep()
	}
	if cfg.Drain != nil && !pause && g > w.startStep &&
		(cfg.CheckpointEvery <= 0 || g%cfg.CheckpointEvery == 0) {
		w.drainFlag[0] = 0
		if w.rank == 0 {
			select {
			case <-cfg.Drain:
				w.drainFlag[0] = 1
			default:
			}
		}
		if err := w.cm.Broadcast(w.drainFlag[:], 0); err != nil {
			return fmt.Errorf("cluster: drain poll at step %d: %w", g, err)
		}
		pause = w.drainFlag[0] != 0
	}
	if cfg.SnapshotSink != nil {
		snap := pause ||
			(g == w.startStep && cfg.Resume == nil) ||
			(g > w.startStep && cfg.CheckpointEvery > 0 && g%cfg.CheckpointEvery == 0)
		if snap {
			if err := w.deliverSnapshot(g); err != nil {
				return err
			}
		}
	}
	if pause {
		return ErrPaused
	}
	if g == w.startStep || g%cfg.StepsPerEpoch == 0 {
		w.lr = w.lrSched.LR(g/cfg.StepsPerEpoch, cfg.Epochs) * w.lrScale
		if g%cfg.StepsPerEpoch == 0 {
			w.lossSum = 0
		}
	}
	return nil
}

// step is Algorithm 1's loop body for global step g: the batch draw,
// backprop, then every bucket through the pipeline — encode, exchange,
// reconstruct in place — and the optimizer update. All it decides about the
// pipeline is the launch order. The step clock starts before the draw;
// compute has its own mark after it.
func (w *worker) step(g int) error {
	cfg, p := &w.cfg, w.pipe
	p.step = g
	encMark := p.encodeSec
	tStep := time.Now()
	if w.img != nil {
		w.img.SampleInto(w.sampleRNG, cfg.BatchPerWorker, &w.batch)
	} else {
		w.txt.SampleInto(w.sampleRNG, cfg.BatchPerWorker, cfg.SeqLen, &w.batch)
	}
	batch := w.batch
	w.model.ZeroGrads()
	bounds := p.bk.Bounds()
	nb := len(bounds) - 1
	t0 := time.Now()
	// Histogram steps take the post-backward order on EVERY rank: the
	// capture needs the raw local gradient before any exchange rewrites it —
	// exchanges reconstruct into the live storage the views alias — and the
	// launch order must stay identical across ranks. Only rank 0 actually
	// gathers and captures.
	if histStep := slices.Contains(cfg.HistIters, g); cfg.Interleave && !histStep {
		// Backprop-interleaved: launch each bucket from inside the backward
		// pass as soon as its gradient range is final, deepest buckets
		// first. The exchange proceeds on the progress workers while the
		// shallower layers are still back-propagating.
		next := nb - 1
		w.lossSum += w.model.StepInterleaved(batch, func(lo int) {
			for ; next >= 0 && bounds[next] >= lo; next-- {
				p.launch(next)
			}
		})
		// The encode time spent inside the backward callbacks is
		// compression cost, not model compute.
		w.computeSec += time.Since(t0).Seconds() - (p.encodeSec - encMark)
	} else {
		w.lossSum += w.model.Step(batch)
		w.computeSec += time.Since(t0).Seconds()
		if histStep && w.rank == 0 {
			w.grads.CopyTo(w.scratch)
			h := stats.NewHistogram(-0.25, 0.25, 101)
			h.AddSlice(w.scratch)
			w.hists = append(w.hists, h)
		}
		for b := 0; b < nb; b++ {
			p.launch(b)
		}
	}
	if err := p.wait(); err != nil {
		return fmt.Errorf("cluster: step %d: %w", g, err)
	}
	// Every exchange reconstructed in place through its bucket view — there
	// is nothing to scatter back.
	w.opt.Step(w.model.Params(), w.lr)
	w.stepSec += time.Since(tStep).Seconds()
	return nil
}

// captureState deep-copies this rank's full training state; the snapshot
// stays valid while the rank trains on.
func (w *worker) captureState() *WorkerState {
	ws := &WorkerState{Rank: w.rank, SampleRNG: w.sampleRNG.State(), LossSum: w.lossSum}
	ws.Params = make([]float32, w.n)
	w.weights.CopyTo(ws.Params)
	if sl := w.state.Len(); sl > 0 {
		ws.ModelState = make([]float32, sl)
		w.state.CopyTo(ws.ModelState)
	}
	ws.Velocity = make([]float32, w.n)
	w.velocity.CopyTo(ws.Velocity)
	ws.Buckets = w.pipe.bk.SaveStates()
	return ws
}

// deliverSnapshot captures every rank's state at boundary step (all ranks
// call it collectively), barriers so the slot writes are ordered before rank
// 0's read, and hands rank 0's assembled RunState to the sink.
func (w *worker) deliverSnapshot(step int) error {
	w.snapSlots[w.rank].Store(w.captureState())
	if err := w.cm.Barrier(); err != nil {
		return fmt.Errorf("cluster: snapshot barrier at step %d: %w", step, err)
	}
	if w.rank != 0 {
		return nil
	}
	ws := make([]*WorkerState, len(w.snapSlots))
	for i := range w.snapSlots {
		ws[i] = w.snapSlots[i].Load()
	}
	cfg := &w.cfg
	rs := &RunState{
		Family: cfg.Family, Seed: cfg.Seed,
		Epochs: cfg.Epochs, StepsPerEpoch: cfg.StepsPerEpoch,
		Step: step, World: cfg.Workers, NumParams: w.n,
		Bounds:  append([]int(nil), w.pipe.bk.Bounds()...),
		History: append([]EpochStats(nil), w.epochs...),
		Workers: ws,
	}
	if err := cfg.SnapshotSink(rs); err != nil {
		return fmt.Errorf("cluster: snapshot sink at step %d: %w", step, err)
	}
	return nil
}

// finish ends a completed run: the final dense synchronization and rank 0's
// Result, which carries the synchronized weights.
func (w *worker) finish() error {
	// Snapshot traffic before the final dense synchronization so the
	// per-step accounting reflects the algorithm, not the epilogue.
	w.sent.Add(w.cm.Traffic().BytesSent)

	// Algorithm 1, lines 9–10: one final dense synchronization so all
	// replicas end identical (A2SGD replicas drift by design).
	w.weights.CopyTo(w.scratch)
	if err := w.cm.AllreduceMean(w.scratch, comm.AlgoAuto); err != nil {
		return fmt.Errorf("cluster: final dense synchronization: %w", err)
	}
	w.weights.CopyFrom(w.scratch)
	if w.rank != 0 {
		return nil
	}
	res, bk := w.res, w.pipe.bk
	// The rank is done with scratch: it becomes the result's weights.
	res.FinalParams = w.scratch
	res.Algorithm = bk.Name()
	res.NumParams = w.n
	res.Metric = w.model.Metric()
	res.Epochs = w.epochs
	// A resume at the final boundary runs no step: the averages stay 0.
	if steps := float64(w.totalSteps - w.startStep); steps > 0 {
		res.AvgComputeSec = w.computeSec / steps
		res.AvgEncodeSec = w.pipe.encodeSec / steps
		res.AvgSyncSec = w.pipe.syncSec / steps
		res.AvgStepSec = w.stepSec / steps
	}
	res.PayloadBytes = bk.PayloadBytes(w.n)
	res.ExchangeKind = bk.ExchangeKind()
	res.Buckets = bk.NumBuckets()
	res.BucketBounds = append([]int(nil), bk.Bounds()...)
	res.Overlap = w.pipe.overlap
	res.Concurrency = w.cm.Concurrency()
	res.Interleave = w.cfg.Interleave
	res.Topology = w.cm.Topology()
	res.BucketPayloadBytes = bk.PayloadBytesPerBucket()
	res.BucketExchangeKinds = bk.ExchangeKinds()
	res.Policy = w.cfg.Schedule.Policy
	res.Histograms = w.hists
	return nil
}
