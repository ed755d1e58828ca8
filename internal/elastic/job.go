package elastic

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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
	// StageSoft: soft-degrade — a one-boundary grace. The rank is named (a
	// degrade(rank=N) event) and nothing else changes: a rank still degraded
	// at the next boundary climbs to backup or eviction, so one noisy
	// classification never costs a clone or a reshard.
	StageSoft
	// StageBackup: a spare Pool slot duplicates the rank's shard; the first
	// finisher wins with a deterministic rank-ordered tie-break, so the
	// recovered run stays bitwise-identical to the fault-free reference. A
	// rank still degraded one boundary later is evicted: a targeted
	// membership-epoch reshard (Evict) shrinks the world by one.
	StageBackup
)

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

// supervisor is one Run's state: the live world and its membership epoch,
// the fault rules (copied, so an eviction can renumber the surviving ranks'
// rules without mutating the caller's scenario), the escalation ladder and
// the restart budget.
type supervisor struct {
	j                           *Job
	base                        cluster.Config
	totalSteps, maxRestarts     int
	driftModel                  netsim.Fabric
	driftThreshold              float64
	rules                       []faultnet.Rule
	consumed                    []bool
	rr                          *RunResult
	world, epoch, pendingRejoin int
	ladder                      []LadderStage
	backups                     []int
	drifted                     bool
	budgetUsed                  int

	// latest is written by rank 0's sink goroutine during a segment and read
	// by the supervisor after the segment joins; mu makes the handoff
	// race-free under external sinks that outlive the group join. cleanSince
	// counts consecutive snapshot deliveries with no failure in between, the
	// ResetBudgetAfter refill signal.
	mu         sync.Mutex
	latest     *cluster.RunState
	cleanSince int
}

func newSupervisor(j *Job) *supervisor {
	s := &supervisor{j: j, base: j.Config, maxRestarts: j.MaxRestarts, driftModel: j.DriftModel, driftThreshold: j.DriftThreshold}
	if s.base.Workers <= 0 {
		s.base.Workers = 1
	}
	epochsN, stepsN := s.base.Epochs, s.base.StepsPerEpoch
	if epochsN <= 0 {
		epochsN = 1
	}
	if stepsN <= 0 {
		stepsN = 10
	}
	s.totalSteps = epochsN * stepsN
	if s.maxRestarts <= 0 {
		s.maxRestarts = 8
	}
	if s.driftModel == (netsim.Fabric{}) {
		s.driftModel = netsim.IB100()
	}
	if s.driftThreshold <= 1 {
		s.driftThreshold = 2
	}
	if j.Scenario != nil {
		s.rules = append([]faultnet.Rule(nil), j.Scenario.Rules...)
	}
	s.consumed = make([]bool, len(s.rules))
	s.latest = s.base.Resume
	s.world = s.base.Workers
	startStep := 0
	if s.latest != nil {
		s.world = s.latest.World
		startStep = s.latest.Step
	}
	s.rr = &RunResult{Events: []Event{{Epoch: 0, Step: startStep, World: s.world, Reason: "start"}}}
	s.ladder = make([]LadderStage, s.world)
	return s
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
// rank always gets one boundary of grace before any backup or eviction — and
// the measured fabric is compared against DriftModel to trigger a
// measured-fabric replan.
func (j *Job) Run() (*RunResult, error) {
	s := newSupervisor(j)
	rr := s.rr
	for {
		seg, mon, err := s.segment()
		if err != nil {
			return rr, err
		}
		var slots int
		if j.Pool != nil {
			slots = j.Pool.Acquire(s.world + len(s.backups))
		}
		res, err := cluster.Train(seg)
		if j.Pool != nil {
			j.Pool.Release(slots)
		}
		s.mu.Lock()
		snap := s.latest
		s.mu.Unlock()

		if err == nil {
			res.MembershipEpoch = s.epoch
			rr.Result = res
			rr.Snapshot = snap
			return rr, nil
		}
		if errors.Is(err, cluster.ErrPaused) {
			if drained(j.Drain) {
				rr.Paused = true
				rr.Snapshot = snap
				rr.Events = append(rr.Events, Event{Epoch: s.epoch, Step: snap.Step, World: s.world, Reason: "drain"})
				return rr, nil
			}
			if s.pendingRejoin > 0 {
				world := s.world + s.pendingRejoin
				s.pendingRejoin = 0
				if err := s.reshape(snap, world, -1, "rejoin"); err != nil {
					return rr, err
				}
				continue
			}
			if mon != nil && seg.StopStep > 0 {
				if err := s.evaluateHealth(mon, snap); err != nil {
					return rr, err
				}
				continue
			}
			return rr, err // paused with no pending transition: surface it
		}
		if err := s.handleFailure(err, seg.Resume, snap); err != nil {
			return rr, err
		}
	}
}

// segment builds the next cluster.Train call: the current world resumed from
// the latest snapshot, paced to the next boundary when a rejoin is pending or
// the health monitor is on, re-planned when Replan is set, and launched under
// the segment's fault scenario. mon is the segment's health monitor, or nil.
func (s *supervisor) segment() (seg cluster.Config, mon *health.Monitor, err error) {
	j := s.j
	segStart := 0
	if s.latest != nil {
		segStart = s.latest.Step
	}
	seg = s.base
	seg.Workers = s.world
	seg.Resume = s.latest
	seg.Drain = j.Drain
	seg.StopStep = 0
	seg.SnapshotSink = func(rs *cluster.RunState) error {
		s.mu.Lock()
		s.latest = rs
		s.cleanSince++
		s.mu.Unlock()
		if j.SnapshotSink != nil {
			return j.SnapshotSink(rs)
		}
		return nil
	}
	stop := nextBoundary(segStart, seg.CheckpointEvery, s.totalSteps)
	if stop == 0 {
		// No boundary left before the run ends: preempted ranks cannot
		// rejoin, the shrunk world finishes the run, and so does the final
		// stretch of a health-paced one.
		s.pendingRejoin = 0
	}
	healthOn := j.Health || j.BackupSlots > 0 || j.DriftReplan
	if healthOn {
		mon = health.NewMonitor(s.world, health.Options{})
		seg.Health = mon
	}
	if s.pendingRejoin > 0 || healthOn {
		// Pause at the boundary: the rejoin, the ladder and the drift check
		// happen between segments.
		seg.StopStep = stop
	}
	if j.Replan != nil {
		fabric := s.driftModel
		if s.drifted {
			fabric = *s.rr.Measured
		}
		sched, err := j.Replan(s.world, fabric)
		if err != nil {
			return seg, nil, fmt.Errorf("elastic: replan at world %d on %s: %w", s.world, fabric.Name, err)
		}
		seg.Schedule = sched
	}
	seg.GroupRunner = faultnet.GroupRunner(s.scenario(segStart), j.TCP)
	return seg, mon, nil
}

// scenario derives the fault scenario for a segment starting at global step
// segStart: consumed rules are dropped, step-scoped rules are rebased to the
// segment's mesh (each cluster.Train call counts steps from its own start,
// while rule steps are written in global steps) and the active backup ranks
// are installed. Degrade rules rebase even when their ramp began before the
// segment (a negative After keeps the ramp's phase), unlike one-shot step
// rules, which are dropped once passed.
func (s *supervisor) scenario(segStart int) *faultnet.Scenario {
	sc := faultnet.Scenario{Seed: 1}
	if s.j.Scenario != nil {
		sc = *s.j.Scenario
	}
	sc.Rules = nil
	for i, r := range s.rules {
		if s.consumed[i] {
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
	sc.Backup = append([]int(nil), s.backups...)
	return &sc
}

// handleFailure handles a mid-segment failure. Only peer-scoped transport
// failures are membership events — attributed to the earliest unconsumed
// crash, stall or preempt rule of a segment that resumed from `from`, within
// the restart budget. Anything else (divergence, a planning bug) is not
// recoverable by rescaling: it is returned.
func (s *supervisor) handleFailure(err error, from, snap *cluster.RunState) error {
	segStart := 0
	if from != nil {
		segStart = from.Step
	}
	var pe *comm.PeerError
	ri := nextFault(s.rules, segStart, s.consumed)
	s.mu.Lock()
	clean := s.cleanSince
	s.cleanSince = 0
	s.mu.Unlock()
	if s.j.ResetBudgetAfter > 0 && clean >= s.j.ResetBudgetAfter {
		s.budgetUsed = 0
	}
	if !errors.As(err, &pe) || ri < 0 || s.budgetUsed >= s.maxRestarts || snap == nil {
		return err
	}
	s.rr.Restarts++
	s.budgetUsed++
	s.consumed[ri] = true
	r := s.rules[ri]
	if s.world-1 < 1 {
		return fmt.Errorf("elastic: rank %d failed with no survivors left: %w", r.Rank, err)
	}
	reason := fmt.Sprintf("crash(rank=%d)", r.Rank)
	if r.Kind == faultnet.RulePreempt {
		s.pendingRejoin++
		reason = fmt.Sprintf("preempt(rank=%d)", r.Rank)
	}
	return s.reshape(snap, s.world-1, -1, reason)
}

// reshape is the one membership change: it starts the next epoch at world
// ranks from snap's boundary — snap resharded onto world, or, with evicted
// >= 0, snap with that rank removed — records the event and resets the
// ladder, whose rank labels are all stale. Crash, preempt and rejoin clear
// the backups; an eviction keeps the others, relabelled past the gap.
func (s *supervisor) reshape(snap *cluster.RunState, world, evicted int, reason string) error {
	var next *cluster.RunState
	var err error
	if evicted >= 0 {
		next, err = Evict(snap, evicted)
	} else {
		next, err = Reshard(snap, world)
	}
	if err != nil {
		return err
	}
	if evicted >= 0 {
		s.backups = slices.DeleteFunc(s.backups, func(b int) bool { return b == evicted })
		for i, b := range s.backups {
			if b > evicted {
				s.backups[i]--
			}
		}
	} else {
		s.backups = s.backups[:0]
	}
	s.latest, s.world = next, world
	s.epoch++
	s.rr.Events = append(s.rr.Events, Event{Epoch: s.epoch, Step: snap.Step, World: world, Reason: reason})
	s.ladder = make([]LadderStage, world)
	return nil
}

// evaluateHealth runs one boundary's ladder and drift pass: Degraded ranks
// climb a stage (soft-degrade → backup → evict), the measured fabric is
// refreshed and compared against the model.
func (s *supervisor) evaluateHealth(mon *health.Monitor, snap *cluster.RunState) error {
	rr := s.rr
	for _, cl := range mon.Classify() {
		if cl.State != health.Degraded || cl.Rank >= len(s.ladder) {
			continue
		}
		event := func(stage string) {
			rr.Events = append(rr.Events, Event{Epoch: s.epoch, Step: snap.Step, World: s.world, Reason: fmt.Sprintf("%s(rank=%d)", stage, cl.Rank)})
		}
		switch {
		case s.ladder[cl.Rank] == StageHealthy:
			s.ladder[cl.Rank] = StageSoft
			event("degrade")
		case s.ladder[cl.Rank] == StageSoft && len(s.backups) < s.j.BackupSlots:
			s.ladder[cl.Rank] = StageBackup
			s.backups = append(s.backups, cl.Rank)
			rr.Backups++
			event("backup")
		default:
			if err := s.evict(snap, cl.Rank); err != nil {
				return err
			}
		}
	}
	if f, ok := mon.MeasuredFabric("measured"); ok {
		rr.Measured = &f
	}
	if s.j.DriftReplan && !s.drifted && rr.Measured != nil {
		if d := health.Drift(*rr.Measured, s.driftModel); d > s.driftThreshold {
			s.drifted = true
			rr.Events = append(rr.Events, Event{Epoch: s.epoch, Step: snap.Step, World: s.world, Reason: fmt.Sprintf("replan(drift=%.1fx)", d)})
		}
	}
	return nil
}

// evict removes a rank that stayed degraded past its grace (and its backup,
// when it had one). Its slowdown leaves with it: the surviving ranks' rules
// are renumbered past the gap so they keep targeting the same physical
// workers.
func (s *supervisor) evict(snap *cluster.RunState, rank int) error {
	if s.world-1 < 1 {
		return fmt.Errorf("elastic: cannot evict rank %d with no survivors left", rank)
	}
	for i := range s.rules {
		if s.consumed[i] || s.rules[i].Rank < 0 {
			continue
		}
		if s.rules[i].Rank == rank {
			s.consumed[i] = true
		} else if s.rules[i].Rank > rank {
			s.rules[i].Rank--
		}
	}
	return s.reshape(snap, s.world-1, rank, fmt.Sprintf("evict(rank=%d)", rank))
}
