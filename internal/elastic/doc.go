// Package elastic is the elastic training service: it supervises a
// cluster.Train run across membership changes — worker crashes, announced
// preemptions, and rejoins — by stitching together a sequence of fixed-world
// training segments connected through full-state snapshots.
//
// # Membership epochs
//
// The live worker set is versioned by a membership epoch. Each epoch runs as
// one cluster.Train call at a fixed world size (Config.Workers), and the
// supervisor stamps the finishing epoch into Result.MembershipEpoch; any
// change to the live set ends the epoch and starts the next one:
//
//	start ──► epoch 0 (world N)
//	   │ crash/preempt detected (peer error mid-segment)
//	   ▼
//	epoch k+1 (world N−1): resume from the last snapshot, re-plan, retrain
//	   │ preempted rank returns (StopStep pause at the next boundary)
//	   ▼
//	epoch k+2 (world N): reshard the boundary snapshot up, resume
//	   │ run completes, or Drain closes (SIGTERM)
//	   ▼
//	done / paused-with-snapshot
//
// Departures are detected when a segment fails with a *comm.PeerError; the
// supervisor attributes the failure to the earliest unconsumed crash/stall/
// preempt rule of its fault scenario, shrinks the world by one, reshards the
// last snapshot and resumes. A preempt rule additionally schedules a rejoin:
// the shrunk segment runs with StopStep at the next checkpoint boundary, and
// when it pauses there the world grows back and training continues at the
// restored width. Joiners are only ever admitted at step boundaries, so every
// epoch transition happens on a bitwise-defined state.
//
// Every membership change — crash, preempt, rejoin, eviction — takes one
// step: the epoch bumps, the boundary snapshot is resharded (or the evicted
// rank removed from it) and the escalation ladder restarts.
//
// # Escalation ladder
//
// With the health monitor on, a rank classified Degraded at a checkpoint
// boundary climbs one stage per boundary it stays degraded: soft-degrade, a
// one-boundary grace that only names it; a warm backup clone on a spare Pool
// slot; eviction.
//
// # Snapshots
//
// A snapshot (cluster.RunState) is a versioned, CRC-checked capture of
// everything a run needs to continue exactly: model parameters, non-learnable
// model state (batch-norm statistics), optimizer momentum, per-rank sampling
// RNG streams, the step counter, epoch history, and each bucket's compression
// algorithm state (error feedback, quantizer RNGs, periodic step counters).
// WriteSnapshot/ReadSnapshot serialize it (format "A2SV" v1, the repo's one
// persistence format; the reader grows every slice as its bytes arrive, so a
// corrupt length field costs nothing it does not hold); Reshard maps it
// deterministically onto a different world size — survivors keep their state,
// dropped ranks fold their element-aligned error vectors into survivors so no
// accumulated gradient mass is lost, and joiners clone a peer's weights with
// a canonically seeded fresh sample stream.
//
// Restoring a snapshot at the same world size and bucket plan reproduces the
// uninterrupted run bitwise. After a reshard the continuation is still fully
// deterministic: an elastic run that crashes, restores and rescales follows
// exactly the trajectory of an uninterrupted run launched from the same
// resharded snapshot.
//
// # Re-planning
//
// Job.Replan, when set, is called for every segment with its world size and
// the fabric to price on — DriftModel until the health monitor's measured
// fabric drifts from it, the measured fabric after — and supplies the
// synchronization schedule (a2sgd.NewJob's auto planner, which is pure:
// unchanged membership and fabric yield a bitwise-identical plan).
//
// # The job gateway
//
// cmd/a2sgdserve runs N elastic jobs concurrently over a shared Pool of
// worker slots. On SIGTERM it closes each job's Drain channel; the jobs
// pause at their next checkpoint boundary, persist their snapshots, and the
// gateway exits. Restarting with -resume picks every job up from its
// snapshot file.
package elastic
