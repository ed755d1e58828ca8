package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"a2sgd"
	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/elastic"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
	"a2sgd/internal/plan"
)

// ChaosConfig bounds the fault matrix runs.
type ChaosConfig struct {
	// Seed fixes every training run and every fault scenario's RNG
	// (default 11).
	Seed uint64
	// TCP runs every worker group — the rows and their references — over
	// loopback TCP instead of the in-process fabric.
	TCP bool
}

// ChaosCase is one row's verdict.
type ChaosCase struct {
	Name     string  `json:"name"`
	Scenario string  `json:"scenario,omitempty"`
	WallMs   float64 `json:"wall_ms"`
	// Bitwise reports whether the row's final weights matched its reference
	// bit for bit: the fault-free run of the row's shape, or a fixed-world
	// resume of the snapshot an elastic transition resharded.
	Bitwise bool `json:"bitwise"`
	// Restarts, FinalWorld, Events and Backups are the elastic supervisor's
	// record (supervised rows only): recoveries, the last membership epoch's
	// world size, the epoch/ladder history and the backup promotions.
	Restarts   int      `json:"restarts"`
	FinalWorld int      `json:"final_world,omitempty"`
	Events     []string `json:"events,omitempty"`
	Backups    int      `json:"backups"`
	// Detail is the row's own measurement: Δpred/Δmeas for the α–β delay
	// rows, the straggler slowdown and backup speedup, the stale and
	// replanned plan prices.
	Detail string `json:"detail,omitempty"`
	Err    string `json:"err,omitempty"`
	Pass   bool   `json:"pass"`
}

// ChaosReport aggregates one matrix run.
type ChaosReport struct {
	Cases    []ChaosCase `json:"cases"`
	Failures int         `json:"failures"`
}

// chaosShape is the training run a row was tuned on: the a2sgd algorithm on
// the bucketed overlap pipeline at this family, world, length, bucket byte
// budget, ranks per node (0 = flat) and checkpoint pace (0 = none).
type chaosShape struct {
	family                 string
	workers, epochs, steps int
	bucketBytes, topology  int
	checkpointEvery        int
}

func (s chaosShape) String() string {
	return fmt.Sprintf("%s %dw %d×%d, %d B buckets, topology %d, checkpoint every %d",
		s.family, s.workers, s.epochs, s.steps, s.bucketBytes, s.topology, s.checkpointEvery)
}

var (
	// faultShape runs four workers so the partition and hierarchy rows have
	// two groups of two.
	faultShape = chaosShape{family: "fnn3", workers: 4, epochs: 1, steps: 4, bucketBytes: 8192}
	hierShape  = chaosShape{family: "fnn3", workers: 4, epochs: 1, steps: 4, bucketBytes: 8192, topology: 2}
	// elasticShape leaves a crash three survivors and puts one boundary
	// inside the run.
	elasticShape = chaosShape{family: "fnn3", workers: 4, epochs: 2, steps: 5, bucketBytes: 8192, checkpointEvery: 5}
	// stragglerShape halves the bucket budget: more messages per step make
	// the straggler's per-message floor dominate the slow phase, which is
	// what the backup promotion wins back. Boundaries every 2 steps pace the
	// health ladder.
	stragglerShape = chaosShape{family: "fnn3", workers: 4, epochs: 2, steps: 10, bucketBytes: 4096, checkpointEvery: 2}
)

const (
	// slowRank is the straggler rows' slow worker, slowFactor its link
	// slowdown.
	slowRank, slowFactor = 2, 8
	// backupSlots is the spare-worker pool of the straggler-backup and
	// degrade-replan rows; minBackupSpeedup is the wall-clock ratio over the
	// unmitigated row the backup promotion must win back, and so the least
	// slowdown over fault-free the unmitigated row must show.
	backupSlots      = 1
	minBackupSpeedup = 2.0
)

// chaosRun is one run's outcome: what a row's run hands its check.
type chaosRun struct {
	faults string                    // the seeded scenario it ran under ("" = fault-free)
	res    *cluster.Result           // the final rank-0 view (nil on failure or pause)
	sup    *elastic.RunResult        // the supervisor's record (supervised runs only)
	snaps  map[int]*cluster.RunState // boundary snapshots by global step (supervised runs only)
	wall   time.Duration
	err    error
}

// chaosRow is one row of the fault matrix: a fault scenario ("" =
// fault-free; the harness seed is prepended) run on a shape, and the
// contract its outcome must meet. check may fill the case's Bitwise and
// Detail, and returns the verdict.
type chaosRow struct {
	name     string
	scenario string
	shape    chaosShape
	run      func(h *chaosHarness, s chaosShape, faults string) chaosRun
	check    func(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool
}

// chaosHarness runs rows on one fabric and holds what their checks compare
// against.
type chaosHarness struct {
	seed uint64
	tcp  bool
	dir  string                  // where resumed writes its reference snapshots
	refs map[chaosShape]chaosRun // the fault-free run of every shape in the table
	slow map[chaosShape]chaosRun // the unmitigated straggler run of every shape that has one
}

// config is shape s's run under faults on the harness fabric.
func (h *chaosHarness) config(s chaosShape, faults string) a2sgd.TrainConfig {
	return a2sgd.TrainConfig{
		Family: s.family, Spec: "a2sgd", Workers: s.workers,
		Epochs: s.epochs, StepsPerEpoch: s.steps, Seed: h.seed,
		BucketBytes: s.bucketBytes, Topology: s.topology, Overlap: true,
		CheckpointEvery: s.checkpointEvery, Faults: faults, TCP: h.tcp,
	}
}

// train runs tc unsupervised.
func (h *chaosHarness) train(tc a2sgd.TrainConfig) chaosRun {
	start := time.Now()
	res, err := a2sgd.Train(tc)
	return chaosRun{faults: tc.Faults, res: res, wall: time.Since(start), err: err}
}

// supervise runs tc lowered by a2sgd.NewJob through the elastic supervisor
// with job's supervision knobs, collecting every boundary snapshot.
func (h *chaosHarness) supervise(tc a2sgd.TrainConfig, job elastic.Job) chaosRun {
	lowered, err := a2sgd.NewJob(tc)
	if err != nil {
		return chaosRun{faults: tc.Faults, err: err}
	}
	out := chaosRun{faults: tc.Faults, snaps: map[int]*cluster.RunState{}}
	job.Config, job.Scenario, job.TCP = lowered.Config, lowered.Scenario, lowered.TCP
	job.SnapshotSink = func(rs *cluster.RunState) error {
		out.snaps[rs.Step] = rs
		return nil
	}
	start := time.Now()
	out.sup, out.err = job.Run()
	out.wall = time.Since(start)
	if out.sup != nil {
		out.res = out.sup.Result
	}
	return out
}

// baseline is shape s's fault-free run. A shape with a checkpoint pace runs
// through the supervisor, snapshot barriers included, as its rows do, so the
// wall clocks read against it compare like with like.
func (h *chaosHarness) baseline(s chaosShape) chaosRun {
	if s.checkpointEvery == 0 {
		return trained(h, s, "")
	}
	return supervised(elastic.Job{})(h, s, "")
}

// unmitigated is shape s under the straggler scenario sc through the
// supervisor with no backup slot, run once whichever row asks first: it is the
// straggler-unmitigated row and the wall clock straggler-backup must win back.
func (h *chaosHarness) unmitigated(s chaosShape, faults string) chaosRun {
	out, ok := h.slow[s]
	if !ok {
		out = supervised(elastic.Job{})(h, s, faults)
		h.slow[s] = out
	}
	return out
}

// resumed replays the rest of shape s fault-free, unsupervised, from rs
// resharded across world ranks and persisted as an A2SV snapshot file: the
// fixed-world reference an elastic transition must match bit for bit.
func (h *chaosHarness) resumed(s chaosShape, rs *cluster.RunState, world int) ([]float32, error) {
	rs, err := elastic.Reshard(rs, world)
	if err != nil {
		return nil, err
	}
	tc := h.config(s, "")
	tc.ResumePath = filepath.Join(h.dir, "reference.snap")
	if err := elastic.WriteSnapshotFile(tc.ResumePath, rs); err != nil {
		return nil, err
	}
	out := h.train(tc)
	if out.err != nil {
		return nil, fmt.Errorf("reference resume: %w", out.err)
	}
	return out.res.FinalParams, nil
}

// trained is the unsupervised row run.
func trained(h *chaosHarness, s chaosShape, faults string) chaosRun {
	return h.train(h.config(s, faults))
}

// supervised returns the row run that drives a job shaped like job through
// the elastic supervisor.
func supervised(job elastic.Job) func(*chaosHarness, chaosShape, string) chaosRun {
	return func(h *chaosHarness, s chaosShape, faults string) chaosRun {
		return h.supervise(h.config(s, faults), job)
	}
}

// reference is the fault-free row: the shape's reference run itself, the
// wall-clock floor the straggler rows are read against.
func reference(h *chaosHarness, s chaosShape, _ string) chaosRun { return h.refs[s] }

// bitwise: the run completed with its shape's fault-free weights — fault
// injection perturbs timing, never arithmetic.
func bitwise(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool {
	if out.err != nil {
		return false
	}
	return matches(cse, out.res.FinalParams, h.refs[s].res.FinalParams, nil)
}

// priced is bitwise, reporting the run's measured slowdown over its
// reference against the one the netsim law pr predicts for the injected α–β
// parameters (report-only: the measured value carries scheduler noise).
func priced(pr netsim.Pricer) func(*chaosHarness, chaosShape, chaosRun, *ChaosCase) bool {
	return func(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool {
		ref := h.refs[s]
		pass := bitwise(h, s, out, cse)
		cse.Detail += fmt.Sprintf(" Δpred=%.1fms Δmeas=%.1fms",
			predictSlowdown(pr, ref.res, s.epochs*s.steps, s.workers)*1000, (out.wall-ref.wall).Seconds()*1000)
		return pass
	}
}

// predictSlowdown prices one run's communication on the given network model:
// steps × the serial per-bucket sync of the run's recorded payloads, plus the
// setup-broadcast and final dense-allreduce epilogues — each priced under its
// own collective's law (the broadcast is a ⌈log2 p⌉-round tree, not an
// allreduce, and the dense allreduce follows the runtime's length cutover).
// The faulted inproc fabric's only cost IS the injected α–β sleep, so this is
// the whole wall-clock slowdown the scenario should add to a fault-free run.
func predictSlowdown(pr netsim.Pricer, base *cluster.Result, steps, p int) float64 {
	kinds := base.BucketExchangeKinds
	var perStep float64
	for b, bb := range base.BucketPayloadBytes {
		k := base.ExchangeKind
		if b < len(kinds) {
			k = kinds[b]
		}
		perStep += pr.SyncTime(k, bb, p)
	}
	dense := int64(4 * base.NumParams)
	epilogue := pr.BroadcastTime(dense, p) + pr.SyncTime(netsim.ExchangeAllreduce, dense, p)
	return float64(steps)*perStep + epilogue
}

// failFast: an unrecoverable scenario surfaces an error, and promptly — within
// one deadline per in-flight collective phase plus teardown past the
// fault-free wall clock.
func failFast(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool {
	limit := h.refs[s].wall + 5*faultnet.MustParse(out.faults).Deadline + 2*time.Second
	switch {
	case out.err == nil:
		cse.Detail = "no error!"
	case out.wall > limit:
		cse.Detail = fmt.Sprintf("failed after the %.1f ms bound", limit.Seconds()*1000)
	default:
		cse.Detail = "failed fast"
	}
	return out.err != nil && out.wall <= limit
}

// matches records whether a completed run's weights equal its reference
// want — or the error that kept the reference from being built.
func matches(cse *ChaosCase, got, want []float32, err error) bool {
	if err != nil {
		cse.Err = err.Error()
	}
	cse.Bitwise = err == nil && sameBits(got, want)
	cse.Detail = fmt.Sprintf("bitwise=%v", cse.Bitwise)
	return cse.Bitwise
}

// shrunk: rank W-1 crashes one step after the first boundary (a crash ON a
// boundary races the snapshot barrier against the kill); the supervisor
// restarts once on the W-1 survivors, and the shrunk run matches a
// fixed-(W-1)-world resume of the boundary snapshot resharded across them.
func shrunk(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool {
	snap := out.snaps[s.checkpointEvery]
	if out.err != nil || snap == nil || snap.World != s.workers {
		return false
	}
	ref, err := h.resumed(s, snap, s.workers-1)
	return matches(cse, out.res.FinalParams, ref, err) && cse.Restarts == 1 && cse.FinalWorld == s.workers-1
}

// rejoined: a preempted rank leaves, the shrunk segment stops at the next
// boundary, the rank rejoins there, and the full-world tail matches a
// fixed-world resume of the grown snapshot.
func rejoined(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool {
	if out.err != nil {
		return false
	}
	ev := out.sup.Events
	snap := out.snaps[ev[len(ev)-1].Step]
	if len(ev) < 3 || !strings.HasPrefix(ev[1].Reason, "preempt") || ev[2].Reason != "rejoin" || snap == nil {
		return false
	}
	ref, err := h.resumed(s, snap, s.workers)
	return matches(cse, out.res.FinalParams, ref, err) && cse.FinalWorld == s.workers
}

// resumesUninterrupted: a drain pauses the run at a boundary with a
// snapshot, and resuming it fault-free lands on the uninterrupted weights.
func resumesUninterrupted(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool {
	if out.err != nil || !out.sup.Paused || out.sup.Snapshot == nil {
		return false
	}
	got, err := h.resumed(s, out.sup.Snapshot, out.sup.Snapshot.World)
	return matches(cse, got, h.refs[s].res.FinalParams, err)
}

// slower: an unmitigated straggler costs wall clock and not one bit — at
// least minBackupSpeedup times the fault-free run's, or straggler-backup could
// not win that much back (a promoted backup cannot beat the fault-free run).
func slower(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool {
	same := bitwise(h, s, out, cse)
	slowdown := out.wall.Seconds() / h.refs[s].wall.Seconds()
	cse.Detail += fmt.Sprintf(" slowdown=%.1fx", slowdown)
	return same && slowdown >= minBackupSpeedup
}

// backedUp: the ladder climbs degrade → backup for the slow rank and never
// evicts it, the one spare slot is promoted, no bit moves, and the run wins
// back minBackupSpeedup of the unmitigated row's wall clock.
func backedUp(h *chaosHarness, s chaosShape, out chaosRun, cse *ChaosCase) bool {
	if out.err != nil {
		return false
	}
	slow := h.unmitigated(s, out.faults)
	if slow.err != nil {
		cse.Err = fmt.Sprintf("unmitigated run: %v", slow.err)
		return false
	}
	same := bitwise(h, s, out, cse)
	speedup := slow.wall.Seconds() / out.wall.Seconds()
	cse.Detail += fmt.Sprintf(" speedup=%.1fx", speedup)
	degraded, backed, evicted := false, false, false
	for _, e := range out.sup.Events {
		switch e.Reason {
		case fmt.Sprintf("degrade(rank=%d)", slowRank):
			degraded = true
		case fmt.Sprintf("backup(rank=%d)", slowRank):
			backed = true
		case fmt.Sprintf("evict(rank=%d)", slowRank):
			evicted = true
		}
	}
	return same && degraded && backed && !evicted && out.sup.Backups == backupSlots && speedup >= minBackupSpeedup
}

// driftReplanner is the degrade-replan row. Its Replan hook plans the
// family on whichever fabric the supervisor hands it — the model until the
// drift event, the measured fabric after it — remembering the first schedule
// built on a fabric other than the model: the measured-fabric replan the row
// prices, on the family's segments, against the stale schedule.
type driftReplanner struct {
	family    string
	segs      []nn.Segment
	model     netsim.Fabric
	stale     *plan.Schedule
	replanned *plan.Schedule
	fabric    netsim.Fabric // the one replanned was built on
}

func (d *driftReplanner) replan(world int, fabric netsim.Fabric) (*plan.Schedule, error) {
	sched, err := a2sgd.BuildSchedule(d.family, a2sgd.PlanOptions{Workers: world, Pricer: fabric})
	if err == nil && d.replanned == nil && fabric != d.model {
		d.replanned, d.fabric = sched, fabric
	}
	return sched, err
}

// run plans on the fabric a healthy probe run measures, then runs the
// degrade scenario on that stale plan with drift replanning on. The backup
// slot keeps the degraded rank in the world, so the stale and fresh
// schedules price at the same worker count.
func (d *driftReplanner) run(h *chaosHarness, s chaosShape, faults string) chaosRun {
	fail := func(err error) chaosRun { return chaosRun{faults: faults, err: err} }
	segs, _, err := familySegments(s.family, 0)
	if err != nil {
		return fail(err)
	}
	// The probe's IB100 plan is the model's, not a replan.
	d.family, d.model = s.family, netsim.IB100()
	sched, err := d.replan(s.workers, d.model)
	if err != nil {
		return fail(err)
	}
	// The schedule carries the spec, bucket and overlap knobs config lowers.
	tc := h.config(s, "")
	tc.Spec, tc.BucketBytes, tc.Topology, tc.Overlap, tc.Schedule = "", 0, 0, false, sched
	probe := h.supervise(tc, elastic.Job{Health: true})
	if probe.err != nil {
		return fail(fmt.Errorf("probe run: %w", probe.err))
	}
	if probe.sup.Measured == nil {
		return fail(fmt.Errorf("probe run measured no fabric"))
	}
	d.segs, d.model = segs, *probe.sup.Measured
	// The stale schedule is what Replan builds on the model, so the segments
	// before the drift run exactly it.
	if d.stale, err = d.replan(s.workers, d.model); err != nil {
		return fail(err)
	}
	tc.Faults, tc.Schedule = faults, d.stale
	return h.supervise(tc, elastic.Job{
		BackupSlots: backupSlots, DriftReplan: true, DriftModel: d.model, Replan: d.replan,
	})
}

// check: the measured α–β drift triggered a replan on the fabric the run
// observed, and the fresh schedule prices no worse than the stale one there.
func (d *driftReplanner) check(_ *chaosHarness, _ chaosShape, out chaosRun, cse *ChaosCase) bool {
	if out.err != nil {
		return false
	}
	replanned := false
	for _, e := range out.sup.Events {
		replanned = replanned || strings.HasPrefix(e.Reason, "replan(")
	}
	if !replanned || d.replanned == nil {
		cse.Detail = "degraded fabric never triggered a replan"
		return false
	}
	stale, err := plan.Reprice(d.stale, d.segs, d.fabric)
	if err != nil {
		cse.Err = err.Error()
		return false
	}
	fresh, err := plan.Reprice(d.replanned, d.segs, d.fabric)
	if err != nil {
		cse.Err = err.Error()
		return false
	}
	cse.Detail = fmt.Sprintf("stale=%.3gs replanned=%.3gs", stale.Pipelined, fresh.Pipelined)
	return fresh.Pipelined <= stale.Pipelined
}

// chaosRows is the fault matrix, each row on the shape it was tuned on.
func chaosRows() []chaosRow {
	// The injected α–β delay rows mirror these fabric parameters; the
	// prediction prices the same collectives the run performs under the
	// matching netsim law (flat Fabric for a uniform delay, TwoTier with a
	// free intra tier for a leader-link-only delay).
	delayed := netsim.Fabric{Name: "injected", Alpha: 300e-6, Beta: 4e-9}
	crossNode := netsim.TwoTier{
		Name:  "injected-inter",
		Inter: netsim.Fabric{Name: "injected", Alpha: 200e-6, Beta: 2e-9},
		// Intra stays zero: only the leader link is faulted.
		RanksPerNode: 2,
	}
	drain := make(chan struct{})
	close(drain) // pauses at the first boundary
	slow := fmt.Sprintf("deadline(10s) straggler(rank=%d, x%d)", slowRank, slowFactor)
	dr := &driftReplanner{}
	return []chaosRow{
		{"delay-ab", "delay(link=*, alpha=300us, beta=4ns/B)", faultShape, trained, priced(delayed)},
		{"jitter", "delay(link=*, alpha=50us, jitter=100us)", faultShape, trained, bitwise},
		{"bandwidth", "bw(link=*, mbps=250)", faultShape, trained, bitwise},
		{"dup", "dup(link=*, p=0.3)", faultShape, trained, bitwise},
		{"reorder", "reorder(link=*, p=0.3)", faultShape, trained, bitwise},
		{"loss", "loss(link=*, p=0.1, resend=500us)", faultShape, trained, bitwise},
		{"straggler", "straggler(rank=1, x2)", faultShape, trained, bitwise},
		{"flap-retry", "flap(rank=1, period=30ms, duty=0.7)", faultShape, trained, bitwise},
		{"partition-retry", "partition(groups=0-1|2-3, after=10ms, dur=15ms)", faultShape, trained, bitwise},
		{"hier-inter-delay", "delay(link=0-2, alpha=200us, beta=2ns/B)", hierShape, trained, priced(crossNode)},
		{"crash", "deadline(500ms) crash(rank=3, step=2)", faultShape, trained, failFast},
		{"stall", "deadline(400ms) stall(rank=2, step=2)", faultShape, trained, failFast},
		{"crash-shrink", "deadline(5s) crash(rank=3, step=6)", elasticShape, supervised(elastic.Job{}), shrunk},
		{"preempt-rejoin", "deadline(5s) preempt(rank=1, step=3)", elasticShape, supervised(elastic.Job{}), rejoined},
		{"drain-resume", "", elasticShape, supervised(elastic.Job{Drain: drain}), resumesUninterrupted},
		{"fault-free", "", stragglerShape, reference, bitwise},
		{"straggler-unmitigated", slow, stragglerShape, (*chaosHarness).unmitigated, slower},
		{"straggler-backup", slow, stragglerShape, supervised(elastic.Job{BackupSlots: backupSlots}), backedUp},
		{"degrade-replan", fmt.Sprintf("deadline(10s) degrade(rank=%d, after=0, factor=%d, ramp=0)", slowRank, slowFactor),
			stragglerShape, dr.run, dr.check},
	}
}

// Chaos runs the seeded fault matrix. Every recoverable row must train to
// final weights bitwise identical to its reference — the fault-free run of
// its shape, or for an elastic transition the fixed-world resume of the
// snapshot it resharded — and every unrecoverable row must surface an error
// within its deadline instead of hanging. A crash shrinks the world, a
// preemption shrinks and re-admits it, a drain pauses with a resumable
// snapshot, a promoted backup worker wins back a straggler's wall clock,
// and a degraded fabric drifts the measured α–β estimates into a replan.
// Every run, references included, uses the configured fabric. A non-nil
// error with a nil report means the harness itself could not run; matrix
// verdicts land in the report (Failures counts the rows that missed their
// contract).
func Chaos(w io.Writer, c ChaosConfig) (*ChaosReport, error) {
	return runChaos(w, c, chaosRows())
}

func runChaos(w io.Writer, c ChaosConfig, rows []chaosRow) (*ChaosReport, error) {
	dir, err := os.MkdirTemp("", "a2sgd-chaos-")
	if err != nil {
		return nil, fmt.Errorf("bench: chaos: %w", err)
	}
	defer os.RemoveAll(dir)
	h := &chaosHarness{seed: c.Seed, tcp: c.TCP, dir: dir, refs: map[chaosShape]chaosRun{}, slow: map[chaosShape]chaosRun{}}
	if h.seed == 0 {
		h.seed = 11
	}
	fabric := "inproc"
	if h.tcp {
		fabric = "tcp"
	}
	if w != nil {
		fmt.Fprintf(w, "chaos matrix: %d rows, seed %d, %s fabric\n", len(rows), h.seed, fabric)
	}

	// One fault-free reference per shape. Training is deterministic, so one
	// run pins the shape's weights.
	for _, r := range rows {
		if _, ok := h.refs[r.shape]; ok {
			continue
		}
		ref := h.baseline(r.shape)
		if ref.err != nil {
			return nil, fmt.Errorf("bench: chaos reference (%s): %w", r.shape, ref.err)
		}
		if len(ref.res.FinalParams) == 0 {
			return nil, fmt.Errorf("bench: chaos reference (%s) produced no final weights", r.shape)
		}
		h.refs[r.shape] = ref
		if w != nil {
			fmt.Fprintf(w, "reference %s: %.1f ms\n", r.shape, ref.wall.Seconds()*1000)
		}
	}

	rep := &ChaosReport{}
	var failed []string
	for _, r := range rows {
		cse := ChaosCase{Name: r.name}
		var faults string
		if r.scenario != "" {
			faults = fmt.Sprintf("seed(%d) %s", h.seed, r.scenario)
			sc, err := faultnet.Parse(faults)
			if err != nil {
				return nil, fmt.Errorf("bench: chaos row %s: %w", r.name, err)
			}
			cse.Scenario = sc.String()
		}
		out := r.run(h, r.shape, faults)
		cse.WallMs = out.wall.Seconds() * 1000
		if out.err != nil {
			cse.Err = out.err.Error()
		}
		if rr := out.sup; rr != nil {
			cse.Restarts, cse.Backups = rr.Restarts, rr.Backups
			cse.FinalWorld = rr.Events[len(rr.Events)-1].World
			for _, e := range rr.Events {
				cse.Events = append(cse.Events, fmt.Sprintf("%s@%d/w%d", e.Reason, e.Step, e.World))
			}
		}
		cse.Pass = r.check(h, r.shape, out, &cse)
		if !cse.Pass {
			failed = append(failed, r.name)
		}
		rep.Cases = append(rep.Cases, cse)
	}
	rep.Failures = len(failed)

	if w != nil {
		rows := make([][]string, 0, len(rep.Cases))
		for _, cse := range rep.Cases {
			verdict := "PASS"
			if !cse.Pass {
				verdict = "FAIL"
			}
			restarts, world, backups := "-", "-", "-"
			if len(cse.Events) > 0 {
				restarts, world, backups = fmt.Sprint(cse.Restarts), fmt.Sprint(cse.FinalWorld), fmt.Sprint(cse.Backups)
			}
			rows = append(rows, []string{
				cse.Name, fmt.Sprintf("%.1f", cse.WallMs), restarts, world, backups,
				strings.Join(cse.Events, " "), cse.Detail, verdict,
			})
		}
		table(w, []string{"scenario", "wall ms", "restarts", "world", "backups", "events", "detail", "verdict"}, rows)
		for _, cse := range rep.Cases {
			if !cse.Pass {
				fmt.Fprintf(w, "FAIL %s (%s): err=%s\n", cse.Name, cse.Scenario, cse.Err)
			}
		}
	}
	if len(failed) > 0 {
		return rep, fmt.Errorf("bench: chaos: %d row(s) missed their contract: %s",
			len(failed), strings.Join(failed, ", "))
	}
	return rep, nil
}
