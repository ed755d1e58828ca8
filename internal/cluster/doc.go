// Package cluster is the data-parallel distributed training runtime: it
// plays the role Horovod plays in the paper. P workers (goroutines with
// MPI-style communicators) hold model replicas, compute local gradients on
// their shard of each mini-batch, synchronize through a pluggable
// gradient-synchronization algorithm (A2SGD or any baseline), and apply the
// update with the Table 1 learning-rate policy.
//
// # One input: the schedule
//
// Train is told which synchronizer runs on which slice of the gradient in
// exactly one way: Config.Schedule, a plan.Schedule holding the bucket
// boundaries, one algorithm spec per bucket, the hierarchy width and the
// overlap flag. plan.Build prices one from a network model; Lower writes
// down the one a spec or policy string, a bucket byte budget, a topology
// width and an overlap flag denote — what the a2sgd façade, the CLIs and the
// bench sweeps do with their knobs. Train validates the schedule, cuts the
// model with nn.PlanFromBounds and builds every bucket's algorithm from
// Schedule.Specs with the compress.BucketSeed seed, so equal schedules and
// seeds give bitwise-equal runs whoever wrote the schedule.
//
// # Gradient pipeline
//
// Train validates the Config, runs one worker per rank and averages the
// ranks' traffic. A worker (worker.go) is the rank's life: setup or restore,
// then for every global step g a boundary (pause, drain poll, snapshot,
// learning rate) and a step (Algorithm 1's loop body), then finish (final
// dense synchronization and Result, whose FinalParams are the synchronized
// weights — the run's model and its bitwise fingerprint). The step drives
// one pipeline (pipeline.go), which owns the compress.Bucketed, the per-bucket views of
// the layers' live gradient storage, the pooled exchange operations and the
// encode and sync clocks.
//
// Params() order is the layout; position is identity; views move everything.
// At setup the worker lays four tensor.VecViews over model.Params() order —
// the layers' weights and gradients, the model's non-learnable state and the
// optimizer's momentum. The pipeline's bucket views are SliceViews of the
// gradient view; the setup broadcast, the Figure 1 capture, snapshot capture
// and restore and the final dense synchronization are CopyTo / CopyFrom on
// those views, through one contiguous scratch buffer where a collective
// needs one.
//
// Each step flows backward → launch → wait → apply. The flattened gradient is
// cut at the schedule's layer-granular bounds and every bucket owns a full
// algorithm instance (compress.Bucketed — per-bucket error feedback, seeds
// and A2SGD means). pipeline.launch(b) is the only place a bucket is
// finite-checked, encoded from its view (inline, on the rank's goroutine)
// and handed to an executor: posted to
// the communicator's progress workers under Schedule.Overlap, so bucket i's
// collective runs while bucket i+1 is still being encoded, or the same
// operation run inline. pipeline.wait joins the step's exchanges, each of
// which has reconstructed into its bucket's view. The step chooses only the
// launch order: ascending after the backward pass, descending from inside it
// under Config.Interleave. Overlapped, interleaved and concurrent runs are
// bitwise identical to synchronous ones for a fixed seed and bucket plan,
// because every bucket's exchange runs the same collectives on the same
// operands whenever it is launched. The proof is one reference, not a
// comparison of modes: internal/core's TestTrainMatchesAlgorithm1 trains P
// replicas with one plain loop per row of PAPER.md's Algorithm 1 and holds
// Train's FinalParams and epoch record to it bit for bit, in every mode, on
// both fabrics and every family.
//
// A whole-model combine (ROADMAP item 1: the paper's exact µ± from per-bucket
// partial sums, one message per step) would sit in the pipeline, after the
// step's encodes and before its first exchange.
//
// # Topology
//
// Schedule.Topology (ranks per node, > 1) switches every collective —
// per-bucket exchanges, the setup broadcast and the final dense
// synchronization — to the two-level hierarchical schedule of
// comm.SetTopology: intra-node reduce/gather, inter-node exchange among
// node leaders, intra-node broadcast; consecutive ranks share a node.
// Hierarchical runs are convergence-equivalent to flat runs (float
// tolerance — the reduction order differs) and deterministic for a fixed
// seed and topology: the same Algorithm 1 reference, summing in comm's
// written two-level order, holds them bit for bit. netsim.TwoTier prices the matching two-tier fabric;
// every Result.ModeledIterSec* helper accepts it.
//
// # Cost accounting
//
// The runtime separates the three cost components the paper's evaluation
// analyses: forward/backward compute (measured), compression compute
// (measured — Figure 2's quantity), and synchronization traffic (counted
// exactly, then priced by the α–β network model for Figures 4–5).
package cluster
