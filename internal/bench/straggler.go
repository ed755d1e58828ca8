package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/elastic"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
	"a2sgd/internal/plan"
)

// StragglerConfig bounds the straggler-tolerance harness runs.
type StragglerConfig struct {
	// Family, Workers, Epochs, Steps configure each run (defaults fnn3 /
	// 4 / 2 / 10). Workers below 3 are raised to 4 so localization has
	// enough link diversity.
	Family                 string
	Workers, Epochs, Steps int
	// Seed fixes the training run and every fault scenario's RNG.
	Seed uint64
	// CheckpointEvery paces the health-evaluation boundaries (default 2).
	CheckpointEvery int
	// Rank is the straggling worker, Factor its link slowdown (defaults
	// 2 and 8).
	Rank   int
	Factor int
	// BackupSlots is the spare-worker pool for the recovery case
	// (default 1).
	BackupSlots int
	// MinSpeedup is the wall-clock ratio the backup case must reach over
	// the unmitigated straggler run (default 2).
	MinSpeedup float64
	// TCP runs the worker groups over loopback TCP.
	TCP bool
}

// StragglerCase is one scenario of the straggler matrix.
type StragglerCase struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario,omitempty"`
	// Events is the escalation-ladder history the supervisor recorded.
	Events  []string `json:"events"`
	Backups int      `json:"backups,omitempty"`
	WallSec float64  `json:"wall_sec"`
	// BitwiseEqual reports whether the run's final weights matched the
	// fault-free baseline bit for bit (slowdowns must never change math).
	BitwiseEqual bool `json:"bitwise_equal"`
	// Speedup is the unmitigated-straggler wall clock over this run's
	// (backup case only).
	Speedup float64 `json:"speedup,omitempty"`
	// StaleSec/ReplannedSec price the pre-drift and replanned schedules on
	// the measured fabric (drift case only).
	StaleSec     float64 `json:"stale_sec,omitempty"`
	ReplannedSec float64 `json:"replanned_sec,omitempty"`
	Err          string  `json:"err,omitempty"`
	Pass         bool    `json:"pass"`
}

// StragglerReport aggregates one straggler-matrix run.
type StragglerReport struct {
	Workers     int             `json:"workers"`
	Rank        int             `json:"rank"`
	Factor      int             `json:"factor"`
	BackupSlots int             `json:"backup_slots"`
	Cases       []StragglerCase `json:"cases"`
	Failures    int             `json:"failures"`
}

func (c *StragglerConfig) defaults() StragglerConfig {
	cfg := *c
	if cfg.Family == "" {
		cfg.Family = "fnn3"
	}
	if cfg.Workers < 3 {
		cfg.Workers = 4
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 2
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 2
	}
	if cfg.Rank <= 0 || cfg.Rank >= cfg.Workers {
		cfg.Rank = 2
	}
	if cfg.Factor <= 1 {
		cfg.Factor = 8
	}
	if cfg.BackupSlots <= 0 {
		cfg.BackupSlots = 1
	}
	if cfg.MinSpeedup <= 0 {
		cfg.MinSpeedup = 2
	}
	return cfg
}

// runStraggler supervises one run of the harness configuration on the given
// schedule under the given job shape, returning the supervisor result and
// the wall clock.
func runStraggler(cfg StragglerConfig, sched *plan.Schedule, mutate func(*elastic.Job)) (*elastic.RunResult, time.Duration, error) {
	ecfg := ElasticConfig{
		Family: cfg.Family, Workers: cfg.Workers, Epochs: cfg.Epochs,
		Steps: cfg.Steps, Seed: cfg.Seed, CheckpointEvery: cfg.CheckpointEvery,
	}
	job := &elastic.Job{Config: elasticBase(ecfg, sched), TCP: cfg.TCP}
	if mutate != nil {
		mutate(job)
	}
	start := time.Now()
	rr, err := job.Run()
	return rr, time.Since(start), err
}

// Straggler runs the straggler-tolerance matrix: an unmitigated straggler
// must slow the run without changing a single bit of the result; promoting a
// backup worker must win back at least MinSpeedup of the lost wall clock,
// again bitwise against the fault-free baseline; and a degraded fabric must
// drift the measured α–β estimates far enough from the planning model to
// trigger a measured-fabric replan whose schedule prices no worse than the
// stale one on the fabric the run actually saw. A non-nil error means the
// harness itself could not run; matrix verdicts land in the report.
func Straggler(w io.Writer, c StragglerConfig) (*StragglerReport, error) {
	cfg := c.defaults()
	rep := &StragglerReport{Workers: cfg.Workers, Rank: cfg.Rank, Factor: cfg.Factor, BackupSlots: cfg.BackupSlots}
	scenario := fmt.Sprintf("seed(%d) deadline(10s) straggler(rank=%d, x%d)", cfg.Seed, cfg.Rank, cfg.Factor)

	finish := func(cse StragglerCase) {
		if !cse.Pass {
			rep.Failures++
		}
		rep.Cases = append(rep.Cases, cse)
	}

	// Half the elastic harness's bucket budget: more messages per step makes
	// the straggler's per-message floor dominate the slow phase, which is what
	// the backup promotion is supposed to win back.
	sched, err := cluster.Lower(cfg.Family, "a2sgd", 4096, 0, true)
	if err != nil {
		return nil, err
	}

	// fault-free: the bitwise reference and the wall-clock floor.
	base := StragglerCase{Name: "fault-free"}
	baseRR, baseWall, err := runStraggler(cfg, sched, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: straggler baseline: %w", err)
	}
	baseW := baseRR.Result.FinalParams
	if len(baseW) == 0 {
		return nil, fmt.Errorf("bench: straggler baseline produced no final weights")
	}
	base.WallSec = baseWall.Seconds()
	base.BitwiseEqual, base.Pass = true, true
	finish(base)

	// straggler-unmitigated: the full slowdown, bit-for-bit the same model.
	slow := StragglerCase{Name: "straggler-unmitigated", Scenario: scenario}
	slowRR, slowWall, err := runStraggler(cfg, sched, func(j *elastic.Job) {
		j.Scenario = faultnet.MustParse(scenario)
	})
	if err != nil {
		slow.Err = err.Error()
	} else {
		slow.WallSec = slowWall.Seconds()
		slow.BitwiseEqual = sameBits(slowRR.Result.FinalParams, baseW)
		slow.Pass = slow.BitwiseEqual && slowWall > baseWall
	}
	finish(slow)

	// straggler-backup: the ladder must climb degrade → backup (never
	// evict), mask the slow links, and recover ≥ MinSpeedup of the wall
	// clock with an identical final model.
	bk := StragglerCase{Name: "straggler-backup", Scenario: scenario}
	rr, bkWall, err := runStraggler(cfg, sched, func(j *elastic.Job) {
		j.Scenario = faultnet.MustParse(scenario)
		j.BackupSlots = cfg.BackupSlots
	})
	if err != nil {
		bk.Err = err.Error()
	} else {
		bk.Events = eventStrings(rr)
		bk.Backups = rr.Backups
		bk.WallSec = bkWall.Seconds()
		bk.BitwiseEqual = sameBits(rr.Result.FinalParams, baseW)
		if bkWall > 0 {
			bk.Speedup = slowWall.Seconds() / bkWall.Seconds()
		}
		degraded, backed, evicted := false, false, false
		for _, e := range rr.Events {
			switch e.Reason {
			case fmt.Sprintf("degrade(rank=%d)", cfg.Rank):
				degraded = true
			case fmt.Sprintf("backup(rank=%d)", cfg.Rank):
				backed = true
			case fmt.Sprintf("evict(rank=%d)", cfg.Rank):
				evicted = true
			}
		}
		bk.Pass = degraded && backed && !evicted && rr.Backups == cfg.BackupSlots &&
			bk.BitwiseEqual && bk.Speedup >= cfg.MinSpeedup
	}
	finish(bk)

	// degrade-replan: plan a schedule on the fabric a healthy probe run
	// measures, then degrade the straggler's links; the supervisor must see
	// the measured α–β drift from that model and replan on the fabric it
	// actually observed, and the fresh schedule must price no worse than
	// the stale one there.
	dr := StragglerCase{Name: "degrade-replan"}
	if cse, err := stragglerDrift(cfg, scenario); err != nil {
		dr.Err = err.Error()
	} else {
		dr = cse
	}
	finish(dr)

	if w != nil {
		fmt.Fprintf(w, "straggler matrix: %d workers, rank %d x%d, %d backup slot(s), checkpoint every %d, seed %d\n",
			cfg.Workers, cfg.Rank, cfg.Factor, cfg.BackupSlots, cfg.CheckpointEvery, cfg.Seed)
		rows := make([][]string, 0, len(rep.Cases))
		for _, cse := range rep.Cases {
			verdict := "PASS"
			if !cse.Pass {
				verdict = "FAIL"
			}
			detail := fmt.Sprintf("bitwise=%v", cse.BitwiseEqual)
			if cse.Speedup > 0 {
				detail += fmt.Sprintf(" speedup=%.1fx", cse.Speedup)
			}
			if cse.ReplannedSec > 0 {
				detail = fmt.Sprintf("stale=%.3gs replanned=%.3gs", cse.StaleSec, cse.ReplannedSec)
			}
			rows = append(rows, []string{
				cse.Name,
				fmt.Sprintf("%.1f", cse.WallSec*1000),
				detail,
				strings.Join(cse.Events, " "),
				verdict,
			})
		}
		table(w, []string{"scenario", "wall ms", "detail", "ladder", "verdict"}, rows)
		for _, cse := range rep.Cases {
			if !cse.Pass && cse.Err != "" {
				fmt.Fprintf(w, "FAIL %s: err=%s\n", cse.Name, cse.Err)
			}
		}
	}
	if rep.Failures > 0 {
		names := make([]string, 0, rep.Failures)
		for _, cse := range rep.Cases {
			if !cse.Pass {
				names = append(names, cse.Name)
			}
		}
		return rep, fmt.Errorf("bench: straggler: %d scenario(s) missed their contract: %s",
			rep.Failures, strings.Join(names, ", "))
	}
	return rep, nil
}

// driftReplanner is the drift leg's Replan hook: plan.Build on whichever
// fabric the supervisor hands it — the model until the drift event, the
// measured fabric after it — remembering the first schedule built on a fabric
// other than the model: the measured-fabric replan the leg prices.
type driftReplanner struct {
	segs      []nn.Segment
	model     netsim.Fabric
	replanned *plan.Schedule
	fabric    netsim.Fabric // the one replanned was built on
}

func (d *driftReplanner) replan(world int, fabric netsim.Fabric) (*plan.Schedule, error) {
	sched, err := plan.Build(d.segs, plan.Options{Workers: world, Pricer: fabric})
	if err == nil && d.replanned == nil && fabric != d.model {
		d.replanned, d.fabric = sched, fabric
	}
	return sched, err
}

// stragglerDrift runs the drift leg of the matrix on planned schedules, which
// a replan swaps mid-run; BackupSlots keeps the degraded rank in the world so
// the stale and fresh schedules price at the same worker count.
func stragglerDrift(cfg StragglerConfig, _ string) (StragglerCase, error) {
	cse := StragglerCase{Name: "degrade-replan"}
	segs, _, err := familySegments(cfg.Family, 0)
	if err != nil {
		return cse, err
	}

	// Probe pass: measure the healthy fabric the planner should model.
	modelSched, err := plan.Build(segs, plan.Options{Workers: cfg.Workers, Pricer: netsim.IB100()})
	if err != nil {
		return cse, err
	}
	probe, _, err := runStraggler(cfg, modelSched, func(j *elastic.Job) { j.Health = true })
	if err != nil {
		return cse, fmt.Errorf("probe run: %w", err)
	}
	if probe.Measured == nil {
		return cse, fmt.Errorf("probe run measured no fabric")
	}
	model := *probe.Measured

	// Stale schedule: planned on the healthy measurement — what Replan builds
	// on the model, so the segments before the drift run exactly it.
	stale, err := plan.Build(segs, plan.Options{Workers: cfg.Workers, Pricer: model})
	if err != nil {
		return cse, err
	}

	scenario := fmt.Sprintf("seed(%d) deadline(10s) degrade(rank=%d, after=0, factor=%d, ramp=0)",
		cfg.Seed, cfg.Rank, cfg.Factor)
	cse.Scenario = scenario
	dr := &driftReplanner{segs: segs, model: model}
	rr, wall, err := runStraggler(cfg, stale, func(j *elastic.Job) {
		j.Scenario = faultnet.MustParse(scenario)
		j.BackupSlots = cfg.BackupSlots
		j.DriftReplan = true
		j.DriftModel = model
		j.Replan = dr.replan
	})
	if err != nil {
		return cse, err
	}
	cse.Events = eventStrings(rr)
	cse.Backups = rr.Backups
	cse.WallSec = wall.Seconds()
	replanEvent := false
	for _, e := range rr.Events {
		if strings.HasPrefix(e.Reason, "replan(") {
			replanEvent = true
		}
	}
	if !replanEvent || dr.replanned == nil {
		return cse, fmt.Errorf("degraded fabric never triggered a replan (events %v)", cse.Events)
	}
	stalePrice, err := plan.Reprice(stale, segs, dr.fabric)
	if err != nil {
		return cse, err
	}
	newPrice, err := plan.Reprice(dr.replanned, segs, dr.fabric)
	if err != nil {
		return cse, err
	}
	cse.StaleSec, cse.ReplannedSec = stalePrice.Pipelined, newPrice.Pipelined
	cse.Pass = newPrice.Pipelined <= stalePrice.Pipelined
	return cse, nil
}
