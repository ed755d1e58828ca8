package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/elastic"
	"a2sgd/internal/models"
	"a2sgd/internal/plan"
)

// The train workloads call cluster.Train through the surface a later
// clean-up keeps: a schedule lowered from a policy string, GroupRunner,
// SnapshotSink, Concurrency, Interleave, CheckpointEvery. Everything is
// measured from outside, through the probe transport's per-step tick.

// trainRun is one cluster.Train call and what the probes saw of it.
type trainRun struct {
	w         *workload
	res       *cluster.Result
	probes    []*probe // nil when the run was made without probes
	snapMs    []float64
	snapBytes float64
	wallS     float64
	mallocs   uint64
	stolen    stolen // the CPU clock over the run
}

type trainOpts struct {
	epochs, steps int
	tr            *tracing // nil outside the traced pass
	single        bool     // the plain baseline: one worker, dense, no pipeline
	noProbe       bool     // the runtime's own group runners, for the allocation comparison
}

func (w *workload) trainOnce(seed uint64, o trainOpts) (*trainRun, error) {
	run := &trainRun{w: w}
	rec := o.tr.recorder()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	clock := newCPUClock()
	defer clock.close()
	steal0, total0 := clock.read()
	start := time.Now()
	m, err := models.New(models.Config{Family: w.family, Seed: seed, Reduced: true})
	if err != nil {
		return nil, err
	}
	n, policy, tcp := workers, w.policy, w.tcp
	if o.single {
		n, policy, tcp = 1, "dense", false
	}
	pol, err := compress.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Workers: n, Family: w.family, Seed: seed,
		Epochs: o.epochs, StepsPerEpoch: o.steps, BatchPerWorker: batchSize,
	}
	if o.single {
		cfg.Schedule = plan.Lower(m.ParamSegments(), pol, 0, 0, false, n)
	} else {
		cfg.Schedule = plan.Lower(m.ParamSegments(), pol, w.bucketBytes, 0, w.overlap, n)
		cfg.Concurrency, cfg.Interleave = w.concurrency, w.interleave
	}
	if rec != nil {
		if err := traceSchedule(cfg.Schedule); err != nil {
			return nil, err
		}
	}
	if !o.noProbe {
		run.probes = make([]*probe, n)
		for r := range run.probes {
			run.probes[r] = newProbe(start, o.epochs*o.steps, o.tr, r)
		}
		cfg.GroupRunner = probedRunner(tcp, run.probes)
	} else if tcp {
		cfg.GroupRunner = tcpnet.RunGroup
	}
	if w.checkpointEvery > 0 && !o.single {
		dir, err := os.MkdirTemp(scratchDir(), "snap-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "run.snap")
		cfg.CheckpointEvery = w.checkpointEvery
		cfg.SnapshotSink = func(rs *cluster.RunState) error {
			t0 := time.Now()
			if err := elastic.WriteSnapshotFile(path, rs); err != nil {
				return err
			}
			d := time.Since(t0)
			if rec != nil {
				end := rec.now()
				rec.ranks[0].add(spSnapshot, laneMain, -1, end-int64(d), end)
			}
			run.snapMs = append(run.snapMs, float64(d)/1e6)
			if fi, err := os.Stat(path); err == nil {
				run.snapBytes = float64(fi.Size())
			}
			return nil
		}
	}
	if rec != nil {
		tracer = rec
		defer func() { tracer = nil }()
	}
	run.res, err = cluster.Train(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	run.wallS = time.Since(start).Seconds()
	steal1, total1 := clock.read()
	run.stolen.add(steal0, total0, steal1, total1)
	runtime.ReadMemStats(&ms1)
	run.mallocs = ms1.Mallocs - ms0.Mallocs
	return run, nil
}

// scratchDir is where the harness keeps temporary files: inside the
// checkout, next to the build output.
func scratchDir() string {
	const dir = ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "."
	}
	return dir
}

// setupSec is workload start → first timed step on rank 0: model build,
// schedule lowering, mesh dial, broadcast, initial snapshot and the warm-up
// steps.
func (t *trainRun) setupSec() float64 { return float64(t.probes[0].ticks[warmup]) / 1e9 }

// stepMs returns rank 0's tick-to-tick step times after warm-up. A delta
// that spans an epoch boundary holds that epoch's evaluation: those are
// returned apart.
func (t *trainRun) stepMs(stepsPerEpoch int) (steps, boundaries []float64) {
	ticks := t.probes[0].ticks
	for i := warmup; i+1 < len(ticks); i++ {
		d := float64(ticks[i+1]-ticks[i]) / 1e6
		if (i+1)%stepsPerEpoch == 0 {
			boundaries = append(boundaries, d)
		} else {
			steps = append(steps, d)
		}
	}
	return steps, boundaries
}

// cycleRates returns the steps per second of every stretch of cycle
// consecutive timed steps on rank 0, taken every cycleStride steps. A cycle
// is the period of the round's periodic work, so each stretch holds the same
// number of evaluations and checkpoint stalls wherever it starts.
func (t *trainRun) cycleRates(cycle int) []float64 {
	ticks := t.probes[0].ticks
	var out []float64
	for i := warmup; i+cycle < len(ticks); i += cycleStride {
		out = append(out, float64(cycle)/(float64(ticks[i+cycle]-ticks[i])/1e9))
	}
	return out
}

// wire returns the bytes and messages one rank sends in one step: per rank
// the median of the tick-to-tick deltas (an exact count that leaves out the
// occasional snapshot barrier), averaged over ranks.
func (t *trainRun) wire() (bytes, msgs float64) {
	for _, p := range t.probes {
		var b, m []float64
		for i := warmup; i+1 < len(p.ticks); i++ {
			b = append(b, float64(p.tickBytes[i+1]-p.tickBytes[i]))
			m = append(m, float64(p.tickMsgs[i+1]-p.tickMsgs[i]))
		}
		bytes += median(b) / float64(len(t.probes))
		msgs += median(m) / float64(len(t.probes))
	}
	return bytes, msgs
}

// stepsToTarget counts the steps until the end of the first epoch whose eval
// loss is at most targetRatio × the eval loss after epoch one; 0 if the run
// never gets there.
func (t *trainRun) stepsToTarget(stepsPerEpoch int) int {
	ep := t.res.Epochs
	for e := 1; e < len(ep); e++ {
		if ep[e].EvalLoss <= t.w.targetRatio*ep[0].EvalLoss {
			return (e + 1) * stepsPerEpoch
		}
	}
	return 0
}

func sameLosses(a, b []cluster.EpochStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Loss) != math.Float64bits(b[i].Loss) ||
			math.Float64bits(a[i].EvalLoss) != math.Float64bits(b[i].EvalLoss) {
			return false
		}
	}
	return true
}

// runTrain makes rounds of the workload until budget has passed (at least
// one), pooling their step samples. A zero budget makes it a set-up only: a
// run just long enough to reach the first timed step.
func runTrain(w *workload, seed uint64, budget time.Duration) (*pass, error) {
	p := &pass{w: w}
	if budget == 0 {
		run, err := w.trainOnce(seed, trainOpts{epochs: 1, steps: warmup + 1})
		if err != nil {
			return nil, err
		}
		p.attempted = warmup + 1
		p.setups = append(p.setups, run.setupSec())
		p.stolen = run.stolen
		return p, nil
	}
	begin := time.Now()
	var first *trainRun
	// Another round is started while less than nine tenths of the budget have
	// passed: a round of train-vgg16 takes 10 s to 17 s, so a 20 s run makes
	// two, and its fastest step is the fastest of a thousand.
	for round := 0; round == 0 || time.Since(begin) < budget*9/10; round++ {
		run, err := w.trainOnce(seed, trainOpts{epochs: w.epochs, steps: w.stepsPerEpoch})
		if err != nil {
			return nil, err
		}
		p.rounds = append(p.rounds, run)
		p.attempted += w.epochs * w.stepsPerEpoch
		p.setups = append(p.setups, run.setupSec())
		steps, _ := run.stepMs(w.stepsPerEpoch)
		p.stepMs = append(p.stepMs, steps...)
		p.rates = append(p.rates, run.cycleRates(w.cycle)...)
		p.stolen.merge(run.stolen)

		if got := len(run.probes[0].ticks); got != w.epochs*w.stepsPerEpoch {
			p.fail("round %d: %d ticks for %d steps", round, got, w.epochs*w.stepsPerEpoch)
		}
		wire, msgs := run.wire()
		if wire != w.wireBytes {
			p.fail("round %d: %g B per worker-step on the wire, pinned %g B", round, wire, w.wireBytes)
		}
		p.wire, p.msgs = wire, msgs
		if first == nil {
			first = run
			p.stepsToTarget = run.stepsToTarget(w.stepsPerEpoch)
			if p.stepsToTarget == 0 {
				p.fail("eval loss never fell to %.2f of its first-epoch value", w.targetRatio)
			}
		} else if !sameLosses(first.res.Epochs, run.res.Epochs) {
			p.fail("round %d: per-epoch losses differ from round 0 at the same seed", round)
		}
	}
	p.payloadBytes = float64(first.res.PayloadBytes)
	return p, nil
}
