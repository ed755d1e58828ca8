package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/elastic"
	"a2sgd/internal/plan"
)

// ElasticConfig bounds the elastic-recovery harness runs.
type ElasticConfig struct {
	// Family, Workers, Epochs, Steps configure each run (defaults fnn3 /
	// 4 / 2 / 5). Workers below 3 are raised to 4 so a crash leaves a
	// non-trivial survivor group.
	Family                 string
	Workers, Epochs, Steps int
	// Seed fixes the training run and every fault scenario's RNG.
	Seed uint64
	// CheckpointEvery paces the snapshot boundaries (default Steps).
	CheckpointEvery int
	// TCP runs the worker groups over loopback TCP.
	TCP bool
}

// ElasticCase is one scenario of the elastic matrix.
type ElasticCase struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario,omitempty"`
	// Events is the membership-epoch history the supervisor recorded.
	Events   []string `json:"events"`
	Restarts int      `json:"restarts"`
	// FinalWorld is the world size of the last membership epoch.
	FinalWorld int     `json:"final_world"`
	WallSec    float64 `json:"wall_sec"`
	// BitwiseEqual reports whether the elastic run's final weights matched
	// its reference run — an uninterrupted fixed-world resume from the same
	// resharded snapshot — bit for bit.
	BitwiseEqual bool   `json:"bitwise_equal"`
	Err          string `json:"err,omitempty"`
	Pass         bool   `json:"pass"`
}

// ElasticReport aggregates one elastic-matrix run.
type ElasticReport struct {
	Workers         int           `json:"workers"`
	CheckpointEvery int           `json:"checkpoint_every"`
	Cases           []ElasticCase `json:"cases"`
	Failures        int           `json:"failures"`
}

func (c *ElasticConfig) defaults() ElasticConfig {
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
		cfg.Steps = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = cfg.Steps
	}
	return cfg
}

// elasticBase builds the training configuration the harness supervises
// around a schedule — representatively the a2sgd algorithm on the bucketed
// overlap pipeline — with periodic checkpointing.
func elasticBase(cfg ElasticConfig, sched *plan.Schedule) cluster.Config {
	return cluster.Config{
		Workers: cfg.Workers, Family: cfg.Family, Schedule: sched,
		Epochs: cfg.Epochs, StepsPerEpoch: cfg.Steps, Seed: cfg.Seed,
		CheckpointEvery: cfg.CheckpointEvery,
	}
}

// runElastic supervises one elastic run under the given scenario ("" =
// fault-free), collecting every boundary snapshot by global step.
func runElastic(cfg ElasticConfig, scenario string, drain <-chan struct{}) (*elastic.RunResult, map[int]*cluster.RunState, time.Duration, error) {
	sched, err := cluster.Lower(cfg.Family, "a2sgd", 8192, 0, true)
	if err != nil {
		return nil, nil, 0, err
	}
	snaps := map[int]*cluster.RunState{}
	job := &elastic.Job{
		Config: elasticBase(cfg, sched),
		TCP:    cfg.TCP,
		Drain:  drain,
		SnapshotSink: func(rs *cluster.RunState) error {
			snaps[rs.Step] = rs
			return nil
		},
	}
	if scenario != "" {
		job.Scenario = faultnet.MustParse(scenario)
	}
	start := time.Now()
	rr, err := job.Run()
	return rr, snaps, time.Since(start), err
}

// refResume replays the rest of the run from rs at rs.World workers with no
// faults and returns the final weights: the fixed-world reference an
// elastic recovery must match bitwise.
func refResume(cfg ElasticConfig, rs *cluster.RunState) ([]float32, error) {
	sched, err := cluster.Lower(cfg.Family, "a2sgd", 8192, 0, true)
	if err != nil {
		return nil, err
	}
	cc := elasticBase(cfg, sched)
	cc.Workers = rs.World
	cc.Resume = rs
	res, err := cluster.Train(cc)
	if err != nil {
		return nil, err
	}
	return res.FinalParams, nil
}

func eventStrings(rr *elastic.RunResult) (out []string) {
	for _, e := range rr.Events {
		out = append(out, fmt.Sprintf("%s@%d/w%d", e.Reason, e.Step, e.World))
	}
	return out
}

// ElasticChaos runs the elastic-recovery matrix: a crash must shrink the
// world and converge to the exact trajectory of an uninterrupted run at the
// shrunk world size resumed from the same resharded snapshot; a preemption
// must shrink and then re-admit the rank at the next checkpoint boundary,
// again bitwise against the fixed-world reference of its last transition; a
// drain must pause with a snapshot that resumes to the fault-free result.
// A non-nil error means the harness itself could not run; matrix verdicts
// land in the report (Failures counts the cases that missed their contract).
func ElasticChaos(w io.Writer, c ElasticConfig) (*ElasticReport, error) {
	cfg := c.defaults()
	rep := &ElasticReport{Workers: cfg.Workers, CheckpointEvery: cfg.CheckpointEvery}
	ck := cfg.CheckpointEvery

	// Fault-free baseline pins the uninterrupted weights for the drain case
	// (the crash/preempt references resume at a different world size, so
	// they are recomputed per case from the captured snapshots).
	baseRR, _, _, err := runElastic(cfg, "", nil)
	if err != nil {
		return nil, fmt.Errorf("bench: elastic baseline: %w", err)
	}
	baseW := baseRR.Result.FinalParams
	if len(baseW) == 0 {
		return nil, fmt.Errorf("bench: elastic baseline produced no final weights")
	}

	finish := func(cse ElasticCase) {
		if !cse.Pass {
			rep.Failures++
		}
		rep.Cases = append(rep.Cases, cse)
	}
	finalWorld := func(rr *elastic.RunResult) int {
		return rr.Events[len(rr.Events)-1].World
	}

	// crash-shrink: rank W-1 dies one step after the first checkpoint
	// boundary (a crash ON a boundary races the snapshot barrier against the
	// kill); the supervisor reshards the boundary snapshot across W-1
	// survivors and the shrunk run must match a fixed-(W-1)-world resume of
	// that snapshot.
	{
		scenario := fmt.Sprintf("seed(%d) deadline(5s) crash(rank=%d, step=%d)", cfg.Seed, cfg.Workers-1, ck+1)
		cse := ElasticCase{Name: "crash-shrink", Scenario: scenario}
		rr, snaps, wall, err := runElastic(cfg, scenario, nil)
		cse.WallSec = wall.Seconds()
		if err != nil {
			cse.Err = err.Error()
		} else {
			cse.Events = eventStrings(rr)
			cse.Restarts = rr.Restarts
			cse.FinalWorld = finalWorld(rr)
			if snap := snaps[ck]; snap != nil && snap.World == cfg.Workers {
				shrunk, rerr := elastic.Reshard(snap, cfg.Workers-1)
				if rerr == nil {
					if ref, rerr := refResume(cfg, shrunk); rerr == nil {
						cse.BitwiseEqual = sameBits(rr.Result.FinalParams, ref)
					}
				}
			}
			cse.Pass = cse.Restarts == 1 && cse.FinalWorld == cfg.Workers-1 && cse.BitwiseEqual
		}
		finish(cse)
	}

	// preempt-rejoin: rank 1 is preempted mid-interval; the shrunk segment
	// stops at the next boundary, the rank rejoins there, and the final
	// full-world tail must match a fixed-world resume of the grown snapshot.
	{
		scenario := fmt.Sprintf("seed(%d) deadline(5s) preempt(rank=1, step=%d)", cfg.Seed, ck-2)
		cse := ElasticCase{Name: "preempt-rejoin", Scenario: scenario}
		rr, snaps, wall, err := runElastic(cfg, scenario, nil)
		cse.WallSec = wall.Seconds()
		if err != nil {
			cse.Err = err.Error()
		} else {
			cse.Events = eventStrings(rr)
			cse.Restarts = rr.Restarts
			cse.FinalWorld = finalWorld(rr)
			rejoined := len(rr.Events) >= 3 && strings.HasPrefix(rr.Events[1].Reason, "preempt") &&
				rr.Events[2].Reason == "rejoin"
			if snap := snaps[rr.Events[len(rr.Events)-1].Step]; rejoined && snap != nil {
				grown, rerr := elastic.Reshard(snap, cfg.Workers)
				if rerr == nil {
					if ref, rerr := refResume(cfg, grown); rerr == nil {
						cse.BitwiseEqual = sameBits(rr.Result.FinalParams, ref)
					}
				}
			}
			cse.Pass = rejoined && cse.FinalWorld == cfg.Workers && cse.BitwiseEqual
		}
		finish(cse)
	}

	// drain-resume: a pre-closed drain pauses the run at the first boundary
	// with a snapshot; resuming it fault-free must land on the exact
	// uninterrupted weights.
	{
		cse := ElasticCase{Name: "drain-resume"}
		drain := make(chan struct{})
		close(drain)
		start := time.Now()
		rr, _, _, err := runElastic(cfg, "", drain)
		if err != nil {
			cse.Err = err.Error()
		} else {
			cse.Events = eventStrings(rr)
			cse.FinalWorld = finalWorld(rr)
			if rr.Paused && rr.Snapshot != nil {
				if ref, rerr := refResume(cfg, rr.Snapshot); rerr == nil {
					cse.BitwiseEqual = sameBits(ref, baseW)
				}
				cse.Pass = cse.BitwiseEqual
			}
		}
		cse.WallSec = time.Since(start).Seconds()
		finish(cse)
	}

	if w != nil {
		fmt.Fprintf(w, "elastic matrix: %d workers, %d×%d steps, checkpoint every %d, seed %d\n",
			cfg.Workers, cfg.Epochs, cfg.Steps, ck, cfg.Seed)
		rows := make([][]string, 0, len(rep.Cases))
		for _, cse := range rep.Cases {
			verdict := "PASS"
			if !cse.Pass {
				verdict = "FAIL"
			}
			rows = append(rows, []string{
				cse.Name,
				fmt.Sprintf("%d", cse.Restarts),
				fmt.Sprintf("%d", cse.FinalWorld),
				fmt.Sprintf("%.1f", cse.WallSec*1000),
				fmt.Sprintf("bitwise=%v", cse.BitwiseEqual),
				strings.Join(cse.Events, " "),
				verdict,
			})
		}
		table(w, []string{"scenario", "restarts", "world", "wall ms", "detail", "epochs", "verdict"}, rows)
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
		return rep, fmt.Errorf("bench: elastic: %d scenario(s) missed their contract: %s",
			rep.Failures, strings.Join(names, ", "))
	}
	return rep, nil
}
