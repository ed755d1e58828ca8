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
// Each step flows bucket → encode → collective → decode → apply: the
// flattened gradient is cut at the schedule's layer-granular bounds, every
// bucket owns a full algorithm instance (compress.Bucketed — per-bucket
// error feedback, seeds and A2SGD means) and is encoded from and
// reconstructed into a view of the layers' live gradient storage, and with
// Schedule.Overlap bucket i's collective runs on the communicator's progress
// worker while bucket i+1 is still being encoded. Overlapped runs are
// bitwise identical to synchronous ones for a fixed seed and bucket plan,
// because the progress worker executes the same collectives in the same
// order.
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
// seed and topology. netsim.TwoTier prices the matching two-tier fabric;
// every Result.ModeledIterSec* helper accepts it.
//
// # Cost accounting
//
// The runtime separates the three cost components the paper's evaluation
// analyses: forward/backward compute (measured), compression compute
// (measured — Figure 2's quantity), and synchronization traffic (counted
// exactly, then priced by the α–β network model for Figures 4–5).
package cluster
