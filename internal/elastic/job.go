package elastic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/health"
	"a2sgd/internal/netsim"
	"a2sgd/internal/plan"
)

// Event records one membership-epoch transition of an elastic run.
type Event struct {
	// Epoch is the membership epoch the transition started.
	Epoch int
	// Step is the global step boundary the epoch resumed from.
	Step int
	// World is the epoch's live worker count.
	World int
	// Reason explains the transition: "start", "crash(rank=N)",
	// "preempt(rank=N)", "rejoin", "drain", and the escalation-ladder
	// stages "degrade(rank=N)" (soft-degrade), "backup(rank=N)" (warm
	// clone on a spare slot), "evict(rank=N)" (targeted removal) and
	// "replan(drift=X.Xx)" (measured fabric diverged from the model).
	Reason string
}

// LadderStage is one rank's position on the escalation ladder the health
// monitor drives: every boundary a rank is still classified Degraded it
// climbs one stage.
type LadderStage int

// Escalation ladder stages, in order.
const (
	// StageHealthy: no action. Transient transport errors are already
	// retried below this ladder by comm.SetRetry.
	StageHealthy LadderStage = iota
	// StageSoft: soft-degrade — the group's effective concurrency shrinks to
	// the deterministic single context (bitwise-identical arithmetic, less
	// outstanding load on the slow rank's links) and the scenario deadline is
	// extended once.
	StageSoft
	// StageBackup: a spare Pool slot duplicates the rank's shard; the first
	// finisher wins with a deterministic rank-ordered tie-break, so the
	// recovered run stays bitwise-identical to the fault-free reference.
	StageBackup
	// StageEvicted: the rank is removed by a targeted membership-epoch
	// reshard (Evict) and the world shrinks by one.
	StageEvicted
)

func (s LadderStage) String() string {
	switch s {
	case StageSoft:
		return "soft-degrade"
	case StageBackup:
		return "backup"
	case StageEvicted:
		return "evicted"
	}
	return "healthy"
}

// Job supervises one elastic training run: a sequence of fixed-world
// cluster.Train segments connected through snapshots, with the world size
// adjusted across segments as ranks crash, get preempted, and rejoin.
type Job struct {
	// Config is the base training configuration. Workers is the initial world
	// size; Resume, when non-nil, restarts the job from a persisted snapshot
	// (the snapshot's world wins over Workers). CheckpointEvery bounds the
	// work lost to a failure and paces the rejoin boundaries.
	Config cluster.Config
	// Scenario injects the job's deterministic faults. The supervisor also
	// reads it to attribute mid-segment failures: a segment failing with a
	// peer error consumes the scenario's earliest unconsumed crash, stall or
	// preempt rule. Nil runs fault-free.
	Scenario *faultnet.Scenario
	// TCP runs the worker groups over loopback TCP instead of the in-process
	// fabric.
	TCP bool
	// Replan, when non-nil, supplies the synchronization schedule for every
	// segment (each membership epoch, and each health-paced stretch of one):
	// it receives the segment's world size and the fabric to price on —
	// DriftModel until a drift event, the measured fabric after it. a2sgd.NewJob's auto planner is pure: unchanged membership and fabric
	// replan to a bitwise-identical schedule. Nil keeps Config.Schedule across
	// rescales — it must then not be bound to a worker count (cluster.Lower's
	// schedules are not).
	Replan func(world int, fabric netsim.Fabric) (*plan.Schedule, error)
	// MaxRestarts bounds recovery attempts (default 8); a run that keeps
	// failing past the bound surfaces its last error.
	MaxRestarts int
	// ResetBudgetAfter, when > 0, refills the restart budget after this many
	// consecutive snapshot boundaries pass without a failure, so a
	// long-running job is not killed by MaxRestarts counting unrelated
	// sporadic faults across its whole lifetime. RunResult.Restarts still
	// reports the lifetime total.
	ResetBudgetAfter int
	// Pool, when non-nil, gates each segment on world free worker slots —
	// plus one slot per active backup clone, so the duplicated hardware is
	// accounted — and concurrent jobs share a bounded amount of parallelism.
	Pool *Pool
	// Drain, when non-nil, requests a graceful pause: once closed, the job
	// stops at its next checkpoint boundary with a final snapshot.
	Drain <-chan struct{}
	// SnapshotSink, when non-nil, additionally receives every snapshot the
	// run delivers (the gateway persists them to disk here). The supervisor
	// always retains the latest snapshot itself.
	SnapshotSink func(*cluster.RunState) error

	// Health enables the per-segment health monitor and the escalation
	// ladder even with no backup slots or drift re-planning configured.
	// When any of Health/BackupSlots/DriftReplan is on, the supervisor paces
	// segments to checkpoint boundaries (StopStep) so it can evaluate the
	// monitor between them; pause/resume is bitwise, so pacing never changes
	// the trained state.
	Health bool
	// BackupSlots bounds the number of concurrently backed-up ranks (0
	// disables the backup stage: persistent stragglers go straight from
	// soft-degrade to eviction).
	BackupSlots int
	// DriftReplan hands Replan the measured fabric, from the next segment
	// on, once the monitor's α–β estimates drift from DriftModel past
	// DriftThreshold.
	DriftReplan bool
	// DriftModel is the fabric the planner priced the original schedule on,
	// and the one Replan receives until a drift event (zero value:
	// netsim.IB100()).
	DriftModel netsim.Fabric
	// DriftThreshold is the worst-direction health.Drift ratio that triggers
	// a replan (default 2).
	DriftThreshold float64
}

// RunResult is the outcome of an elastic run.
type RunResult struct {
	// Result is the final segment's rank-0 view; nil when the run was paused
	// by Drain before completing.
	Result *cluster.Result
	// Paused reports a graceful drain stop; Snapshot is then the resume point.
	Paused bool
	// Snapshot is the latest snapshot the run delivered.
	Snapshot *cluster.RunState
	// Events is the membership-epoch history, starting with "start".
	Events []Event
	// Restarts counts the failure recoveries performed over the job's
	// lifetime (never reset by ResetBudgetAfter).
	Restarts int
	// Backups counts the backup-worker activations.
	Backups int
	// Measured is the last measured fabric the health monitor produced, when
	// any segment gathered enough link samples.
	Measured *netsim.Fabric
}

// segmentScenario derives the fault scenario for a segment starting at global
// step segStart: consumed rules are dropped, step-scoped rules are rebased to
// the segment's mesh (each cluster.Train call counts steps from its own
// start, while rule steps are written in global steps), the active backup
// ranks are installed, and the deadline is stretched by deadlineScale when a
// soft-degraded rank earned its one extension. Degrade rules rebase even when
// their ramp began before the segment (a negative After keeps the ramp's
// phase), unlike one-shot step rules, which are dropped once passed.
func (j *Job) segmentScenario(rules []faultnet.Rule, segStart int, consumed []bool, backups []int, deadlineScale float64) *faultnet.Scenario {
	sc := faultnet.Scenario{Seed: 1}
	if j.Scenario != nil {
		sc = *j.Scenario
	}
	sc.Rules = nil
	for i, r := range rules {
		if consumed[i] {
			continue
		}
		if r.Kind == faultnet.RuleDegrade {
			r.Step -= segStart
		} else if r.Step >= 0 {
			if r.Step < segStart {
				continue
			}
			r.Step -= segStart
		}
		sc.Rules = append(sc.Rules, r)
	}
	sc.Backup = append([]int(nil), backups...)
	if deadlineScale > 1 && sc.Deadline > 0 {
		sc.Deadline = time.Duration(float64(sc.Deadline) * deadlineScale)
	}
	return &sc
}

// nextFault returns the index of the earliest unconsumed rank-failure rule
// (crash, stall or preempt) that can have fired in a segment starting at
// segStart, or -1.
func nextFault(rules []faultnet.Rule, segStart int, consumed []bool) int {
	best := -1
	for i, r := range rules {
		if consumed[i] || r.Step < segStart {
			continue
		}
		switch r.Kind {
		case faultnet.RuleCrash, faultnet.RuleStall, faultnet.RulePreempt:
			if best < 0 || r.Step < rules[best].Step {
				best = i
			}
		}
	}
	return best
}

// nextBoundary returns the first snapshot boundary strictly after step — the
// next CheckpointEvery multiple, or the very next step when periodic
// checkpointing is off — or 0 when no boundary precedes the end of the run.
func nextBoundary(step, every, total int) int {
	b := step + 1
	if every > 0 {
		b = (step/every + 1) * every
	}
	if b >= total {
		return 0
	}
	return b
}

func drained(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Run drives the job to completion (or to a drain pause): it runs one
// cluster.Train segment per membership epoch, snapshots at boundaries,
// shrinks the world when a rank fails, schedules a rejoin boundary for
// preempted ranks, reshards the latest snapshot across every transition,
// re-plans the schedule when Replan is set and stamps the final Result with
// its membership epoch.
//
// With the health monitor on (Health, BackupSlots or DriftReplan), every
// checkpoint boundary additionally evaluates the escalation ladder: a rank
// the monitor classifies Degraded climbs healthy → soft-degrade → backup →
// evicted, one stage per boundary it stays degraded — so a degraded-but-alive
// rank always passes through soft-degrade before any eviction — and the
// measured fabric is compared against DriftModel to trigger a measured-fabric
// replan.
func (j *Job) Run() (*RunResult, error) {
	base := j.Config
	if base.Workers <= 0 {
		base.Workers = 1
	}
	epochsN, stepsN := base.Epochs, base.StepsPerEpoch
	if epochsN <= 0 {
		epochsN = 1
	}
	if stepsN <= 0 {
		stepsN = 10
	}
	totalSteps := epochsN * stepsN
	maxRestarts := j.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 8
	}
	driftModel := j.DriftModel
	if driftModel == (netsim.Fabric{}) {
		driftModel = netsim.IB100()
	}
	driftThreshold := j.DriftThreshold
	if driftThreshold <= 1 {
		driftThreshold = 2
	}
	// Rules are copied so a targeted eviction can renumber the surviving
	// ranks' rules without mutating the caller's scenario.
	var rules []faultnet.Rule
	if j.Scenario != nil {
		rules = append([]faultnet.Rule(nil), j.Scenario.Rules...)
	}
	consumed := make([]bool, len(rules))

	latest := base.Resume
	world := base.Workers
	startStep := 0
	if latest != nil {
		world = latest.World
		startStep = latest.Step
	}
	epoch := 0
	pendingRejoin := 0
	rr := &RunResult{Events: []Event{{Epoch: 0, Step: startStep, World: world, Reason: "start"}}}

	healthOn := j.Health || j.BackupSlots > 0 || j.DriftReplan
	ladder := make([]LadderStage, world)
	var backups []int
	deadlineScale := 1.0
	drifted := false
	// budgetUsed is the spent share of the restart budget; cleanSince counts
	// consecutive snapshot deliveries with no failure in between, the
	// ResetBudgetAfter refill signal.
	budgetUsed, cleanSince := 0, 0

	// latest is written by rank 0's sink goroutine during a segment and read
	// by the supervisor after the segment joins; the mutex makes the handoff
	// race-free under external sinks that outlive the group join.
	var mu sync.Mutex
	for {
		segStart := 0
		if latest != nil {
			segStart = latest.Step
		}
		seg := base
		seg.Workers = world
		seg.Resume = latest
		seg.Drain = j.Drain
		seg.StopStep = 0
		seg.SnapshotSink = func(rs *cluster.RunState) error {
			mu.Lock()
			latest = rs
			cleanSince++
			mu.Unlock()
			if j.SnapshotSink != nil {
				return j.SnapshotSink(rs)
			}
			return nil
		}
		if pendingRejoin > 0 {
			if stop := nextBoundary(segStart, seg.CheckpointEvery, totalSteps); stop > 0 {
				seg.StopStep = stop
			} else {
				// No boundary left before the run ends: the preempted ranks
				// cannot rejoin, the shrunk world finishes the run.
				pendingRejoin = 0
			}
		}
		var mon *health.Monitor
		if healthOn {
			mon = health.NewMonitor(world, health.Options{})
			seg.Health = mon
			// Pace the segment to the next boundary so the ladder and drift
			// checks get a look between segments. The final stretch (no
			// boundary left) runs to completion.
			if seg.StopStep == 0 {
				if stop := nextBoundary(segStart, seg.CheckpointEvery, totalSteps); stop > 0 {
					seg.StopStep = stop
				}
			}
			for _, st := range ladder {
				if st == StageSoft && seg.Concurrency > 1 {
					// Soft-degrade: drop to the deterministic single context.
					// Concurrency never changes the arithmetic, so the run
					// stays bitwise — it only sheds concurrent load from the
					// straggler's links.
					seg.Concurrency = 1
				}
			}
		}
		if j.Replan != nil {
			fabric := driftModel
			if drifted {
				fabric = *rr.Measured
			}
			sched, err := j.Replan(world, fabric)
			if err != nil {
				return rr, fmt.Errorf("elastic: replan at world %d on %s: %w", world, fabric.Name, err)
			}
			seg.Schedule = sched
		}
		seg.GroupRunner = faultnet.GroupRunner(j.segmentScenario(rules, segStart, consumed, backups, deadlineScale), j.TCP)

		var slots int
		if j.Pool != nil {
			slots = j.Pool.Acquire(world + len(backups))
		}
		res, err := cluster.Train(seg)
		if j.Pool != nil {
			j.Pool.Release(slots)
		}
		mu.Lock()
		snap := latest
		mu.Unlock()

		if err == nil {
			res.MembershipEpoch = epoch
			rr.Result = res
			rr.Snapshot = snap
			return rr, nil
		}
		if errors.Is(err, cluster.ErrPaused) {
			if drained(j.Drain) {
				rr.Paused = true
				rr.Snapshot = snap
				rr.Events = append(rr.Events, Event{Epoch: epoch, Step: snap.Step, World: world, Reason: "drain"})
				return rr, nil
			}
			if pendingRejoin > 0 {
				world += pendingRejoin
				pendingRejoin = 0
				epoch++
				latest, err = Reshard(snap, world)
				if err != nil {
					return rr, err
				}
				rr.Events = append(rr.Events, Event{Epoch: epoch, Step: snap.Step, World: world, Reason: "rejoin"})
				// The world changed: every ladder label is stale.
				ladder = make([]LadderStage, world)
				backups = backups[:0]
				continue
			}
			if mon != nil && seg.StopStep > 0 {
				if world, latest, err = j.evaluateHealth(mon, snap, rr, rules, consumed, world, &epoch,
					ladder, &backups, &deadlineScale, &drifted, driftModel, driftThreshold); err != nil {
					return rr, err
				}
				if len(ladder) != world {
					ladder = make([]LadderStage, world)
				}
				continue
			}
			return rr, err // paused with no pending transition: surface it
		}
		// Mid-segment failure. Only peer-scoped transport failures are
		// membership events; anything else (divergence, a planning bug) is not
		// recoverable by rescaling.
		var pe *comm.PeerError
		ri := nextFault(rules, segStart, consumed)
		mu.Lock()
		clean := cleanSince
		cleanSince = 0
		mu.Unlock()
		if j.ResetBudgetAfter > 0 && clean >= j.ResetBudgetAfter {
			budgetUsed = 0
		}
		if !errors.As(err, &pe) || ri < 0 || budgetUsed >= maxRestarts || snap == nil {
			return rr, err
		}
		rr.Restarts++
		budgetUsed++
		consumed[ri] = true
		r := rules[ri]
		if world-1 < 1 {
			return rr, fmt.Errorf("elastic: rank %d failed with no survivors left: %w", r.Rank, err)
		}
		world--
		epoch++
		reason := fmt.Sprintf("crash(rank=%d)", r.Rank)
		if r.Kind == faultnet.RulePreempt {
			pendingRejoin++
			reason = fmt.Sprintf("preempt(rank=%d)", r.Rank)
		}
		latest, err = Reshard(snap, world)
		if err != nil {
			return rr, err
		}
		rr.Events = append(rr.Events, Event{Epoch: epoch, Step: snap.Step, World: world, Reason: reason})
		ladder = make([]LadderStage, world)
		backups = backups[:0]
	}
}

// evaluateHealth runs one boundary's ladder and drift pass: Degraded ranks
// climb a stage (soft-degrade → backup → evict), the measured fabric is
// refreshed and compared against the model. Returns the possibly-shrunk
// world and the snapshot to resume from.
func (j *Job) evaluateHealth(mon *health.Monitor, snap *cluster.RunState, rr *RunResult,
	rules []faultnet.Rule, consumed []bool, world int, epoch *int,
	ladder []LadderStage, backups *[]int, deadlineScale *float64,
	drifted *bool, driftModel netsim.Fabric, driftThreshold float64,
) (int, *cluster.RunState, error) {
	latest := snap
	evict := func(rank int) error {
		if world-1 < 1 {
			return fmt.Errorf("elastic: cannot evict rank %d with no survivors left", rank)
		}
		// The rank's slowdown leaves with it; renumber surviving ranks' rules
		// past the gap so they keep targeting the same physical workers.
		for i := range rules {
			if consumed[i] || rules[i].Rank < 0 {
				continue
			}
			if rules[i].Rank == rank {
				consumed[i] = true
			} else if rules[i].Rank > rank {
				rules[i].Rank--
			}
		}
		var err error
		latest, err = Evict(latest, rank)
		if err != nil {
			return err
		}
		world--
		*epoch++
		// Backup labels shift with the eviction too.
		kept := (*backups)[:0]
		for _, b := range *backups {
			if b == rank {
				continue
			}
			if b > rank {
				b--
			}
			kept = append(kept, b)
		}
		*backups = kept
		ladder[rank] = StageEvicted
		rr.Events = append(rr.Events, Event{Epoch: *epoch, Step: snap.Step, World: world, Reason: fmt.Sprintf("evict(rank=%d)", rank)})
		return nil
	}
	for _, cl := range mon.Classify() {
		if cl.State != health.Degraded || cl.Rank >= len(ladder) || ladder[cl.Rank] == StageEvicted {
			continue
		}
		switch ladder[cl.Rank] {
		case StageHealthy:
			ladder[cl.Rank] = StageSoft
			if *deadlineScale == 1 {
				*deadlineScale = 2 // the one deadline extension
			}
			rr.Events = append(rr.Events, Event{Epoch: *epoch, Step: snap.Step, World: world, Reason: fmt.Sprintf("degrade(rank=%d)", cl.Rank)})
		case StageSoft:
			if len(*backups) < j.BackupSlots {
				ladder[cl.Rank] = StageBackup
				*backups = append(*backups, cl.Rank)
				rr.Backups++
				rr.Events = append(rr.Events, Event{Epoch: *epoch, Step: snap.Step, World: world, Reason: fmt.Sprintf("backup(rank=%d)", cl.Rank)})
			} else if err := evict(cl.Rank); err != nil {
				return world, latest, err
			}
		case StageBackup:
			if err := evict(cl.Rank); err != nil {
				return world, latest, err
			}
		}
	}
	if f, ok := mon.MeasuredFabric("measured"); ok {
		rr.Measured = &f
	}
	if j.DriftReplan && !*drifted && rr.Measured != nil {
		if d := health.Drift(*rr.Measured, driftModel); d > driftThreshold {
			*drifted = true
			rr.Events = append(rr.Events, Event{Epoch: *epoch, Step: snap.Step, World: world, Reason: fmt.Sprintf("replan(drift=%.1fx)", d)})
		}
	}
	return world, latest, nil
}
