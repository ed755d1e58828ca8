package elastic

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/health"
	"a2sgd/internal/netsim"
	"a2sgd/internal/plan"
)

// reasons extracts the event reason strings.
func reasons(rr *RunResult) []string {
	out := make([]string, len(rr.Events))
	for i, e := range rr.Events {
		out[i] = e.Reason
	}
	return out
}

func indexOf(xs []string, want string) int {
	for i, x := range xs {
		if x == want {
			return i
		}
	}
	return -1
}

// runLadderBackup runs a 4-rank straggler job with one backup slot and
// asserts the ladder engaged (degrade → backup, no evict) and the final
// weights are bitwise-identical to the fault-free reference.
func runLadderBackup(t *testing.T, mutate func(*cluster.Config), tcp bool) {
	t.Helper()
	ref := testConfig("fnn3", "a2sgd", 4)
	ref.CheckpointEvery = 2
	if mutate != nil {
		mutate(&ref)
	}
	refRes, err := cluster.Train(ref)
	if err != nil {
		t.Fatalf("fault-free reference: %v", err)
	}

	cfg := testConfig("fnn3", "a2sgd", 4)
	cfg.CheckpointEvery = 2
	if mutate != nil {
		mutate(&cfg)
	}
	job := &Job{
		Config:      cfg,
		Scenario:    faultnet.MustParse("straggler(rank=2, x8)"),
		TCP:         tcp,
		BackupSlots: 1,
	}
	rr, err := job.Run()
	if err != nil {
		t.Fatalf("straggler job: %v", err)
	}
	if rr.Result == nil || rr.Paused {
		t.Fatal("straggler job did not complete")
	}
	rs := reasons(rr)
	di, bi := indexOf(rs, "degrade(rank=2)"), indexOf(rs, "backup(rank=2)")
	if di < 0 || bi < 0 || bi < di {
		t.Fatalf("ladder did not climb degrade → backup: events %v", rs)
	}
	if indexOf(rs, "evict(rank=2)") >= 0 {
		t.Fatalf("backed-up rank was evicted: events %v", rs)
	}
	if rr.Backups != 1 {
		t.Fatalf("Backups = %d, want 1", rr.Backups)
	}
	if !sameBits(rr.Result.FinalParams, refRes.FinalParams) {
		t.Fatal("backup-recovered run is not bitwise-identical to the fault-free reference")
	}
}

func TestBackupRecoveryBitwiseInproc(t *testing.T) {
	runLadderBackup(t, nil, false)
}

func TestBackupRecoveryBitwiseTCP(t *testing.T) {
	runLadderBackup(t, nil, true)
}

func TestBackupRecoveryBitwiseHierarchical(t *testing.T) {
	runLadderBackup(t, func(c *cluster.Config) { c.Schedule.Topology = 2 }, false)
}

// TestDegradedRankSoftDegradesBeforeEviction: with no backup slots, a
// degraded-but-alive rank must still pass through the soft-degrade stage —
// the first boundary that classifies it degraded never evicts directly.
func TestDegradedRankSoftDegradesBeforeEviction(t *testing.T) {
	cfg := testConfig("fnn3", "a2sgd", 4)
	cfg.CheckpointEvery = 2
	job := &Job{
		Config:   cfg,
		Scenario: faultnet.MustParse("straggler(rank=2, x8)"),
		Health:   true, // ladder on, zero backup slots
	}
	rr, err := job.Run()
	if err != nil {
		t.Fatalf("straggler job: %v", err)
	}
	if rr.Result == nil {
		t.Fatal("job did not complete")
	}
	rs := reasons(rr)
	di, ei := indexOf(rs, "degrade(rank=2)"), indexOf(rs, "evict(rank=2)")
	if di < 0 {
		t.Fatalf("straggler never soft-degraded: events %v", rs)
	}
	if ei >= 0 && ei < di {
		t.Fatalf("rank evicted before soft-degrade: events %v", rs)
	}
	if ei >= 0 {
		// The eviction shrinks the world and renumbers ranks; the run must
		// still finish on the survivors.
		if rr.Result.Workers != 3 {
			t.Fatalf("post-eviction run finished at %d workers, want 3", rr.Result.Workers)
		}
	}
}

// TestSoftDegradeOnlyWaits: soft-degrade is a one-boundary grace and nothing
// more. After a boundary that names a degraded rank, the next segment the
// supervisor builds keeps the job's concurrency and its scenario deadline.
func TestSoftDegradeOnlyWaits(t *testing.T) {
	cfg := testConfig("fnn3", "a2sgd", 4)
	sched, err := cluster.Lower("fnn3", "a2sgd", 4096, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Schedule, cfg.Concurrency, cfg.CheckpointEvery = sched, 2, 2
	s := newSupervisor(&Job{
		Config:   cfg,
		Scenario: faultnet.MustParse("deadline(5s) straggler(rank=2, x8)"),
		Health:   true,
	})
	_, mon, err := s.segment()
	if err != nil {
		t.Fatal(err)
	}
	// Every link touching rank 2 reads 200× slower than the rest.
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			alpha := 2e-6
			if src == 2 || dst == 2 {
				alpha = 400e-6
			}
			for _, n := range []int{1000, 2000, 4000, 8000} {
				mon.Recorder(src).ObserveSend(dst, n, alpha+1e-9*float64(n))
			}
		}
	}
	s.latest = &cluster.RunState{Step: 2, World: 4}
	if err := s.evaluateHealth(mon, s.latest); err != nil {
		t.Fatal(err)
	}
	if rs := reasons(s.rr); indexOf(rs, "degrade(rank=2)") < 0 {
		t.Fatalf("no soft-degrade event: %v", rs)
	}
	seg, _, err := s.segment()
	if err != nil {
		t.Fatal(err)
	}
	if seg.Concurrency != 2 || seg.Workers != 4 {
		t.Errorf("segment after soft-degrade: concurrency %d, world %d; want the job's 2 and 4", seg.Concurrency, seg.Workers)
	}
	if d := s.scenario(s.latest.Step).Deadline; d != 5*time.Second {
		t.Errorf("segment after soft-degrade: deadline %v, want the scenario's 5s", d)
	}
}

// TestDriftReplanNoOpWhenCalibrated: with the drift model set to the fabric
// the monitor itself measures on a fault-free run, a second run must not
// trigger a replan — same estimator, same machine, drift ≈ 1 — so Replan
// only ever prices on the drift model.
func TestDriftReplanNoOpWhenCalibrated(t *testing.T) {
	probeCfg := testConfig("fnn3", "a2sgd", 4)
	probeCfg.CheckpointEvery = 2
	probe := &Job{Config: probeCfg, Health: true}
	prr, err := probe.Run()
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if prr.Measured == nil {
		t.Fatal("probe run produced no measured fabric")
	}

	cfg := testConfig("fnn3", "a2sgd", 4)
	cfg.CheckpointEvery = 2
	replans := 0
	job := &Job{
		Config:         cfg,
		DriftReplan:    true,
		DriftModel:     *prr.Measured,
		DriftThreshold: 3,
		Replan: func(world int, fabric netsim.Fabric) (*plan.Schedule, error) {
			if fabric != *prr.Measured {
				replans++
			}
			return cfg.Schedule, nil
		},
	}
	rr, err := job.Run()
	if err != nil {
		t.Fatalf("calibrated run: %v", err)
	}
	if rr.Result == nil {
		t.Fatal("calibrated run did not complete")
	}
	if replans != 0 {
		t.Fatalf("Replan priced on a measured fabric %d times on a calibrated fabric", replans)
	}
	for _, r := range reasons(rr) {
		if len(r) >= 6 && r[:6] == "replan" {
			t.Fatalf("drift replan fired without drift: events %v", reasons(rr))
		}
	}
}

// TestReplanFabricFollowsDrift: Replan prices on DriftModel until the
// monitor's measurements drift from it, and on the measured fabric from the
// next segment on. A model a million times slower than the in-process fabric
// drifts at the first boundary the monitor sees.
func TestReplanFabricFollowsDrift(t *testing.T) {
	cfg := testConfig("fnn3", "a2sgd", 4)
	cfg.CheckpointEvery = 2
	model := netsim.Fabric{Name: "model", Alpha: 1, Beta: 1e-3}
	var fabrics []netsim.Fabric
	job := &Job{
		Config:      cfg,
		DriftReplan: true,
		DriftModel:  model,
		Replan: func(world int, fabric netsim.Fabric) (*plan.Schedule, error) {
			fabrics = append(fabrics, fabric)
			return cfg.Schedule, nil
		},
	}
	rr, err := job.Run()
	if err != nil {
		t.Fatalf("drifting run: %v", err)
	}
	drift := -1
	for i, r := range reasons(rr) {
		if strings.HasPrefix(r, "replan(drift=") {
			drift = i
		}
	}
	if drift < 0 || rr.Measured == nil {
		t.Fatalf("no drift event: events %v", reasons(rr))
	}
	// One Replan per segment: the first on the model, and — the drift event
	// having fired at the first boundary — every later one on a fabric the
	// monitor measured.
	if len(fabrics) < 2 || fabrics[0] != model {
		t.Fatalf("Replan fabrics %+v, want the drift model first", fabrics)
	}
	for i, f := range fabrics[1:] {
		if f == model || f.Name != "measured" {
			t.Errorf("segment %d after the drift priced on %+v, want the measured fabric", i+1, f)
		}
	}
}

// TestRestartBudgetResetsAfterCleanBoundaries: two well-separated crashes
// exceed a budget of one unless ResetBudgetAfter refills it between them.
func TestRestartBudgetResetsAfterCleanBoundaries(t *testing.T) {
	scenario := "deadline(5s) crash(rank=3, step=3) crash(rank=2, step=7)"

	strict := &Job{
		Config:      testConfig("fnn3", "a2sgd", 4),
		Scenario:    faultnet.MustParse(scenario),
		MaxRestarts: 1,
	}
	strict.Config.CheckpointEvery = 2
	if _, err := strict.Run(); err == nil {
		t.Fatal("budget of 1 survived two crashes without ResetBudgetAfter")
	}

	lenient := &Job{
		Config:           testConfig("fnn3", "a2sgd", 4),
		Scenario:         faultnet.MustParse(scenario),
		MaxRestarts:      1,
		ResetBudgetAfter: 1,
	}
	lenient.Config.CheckpointEvery = 2
	rr, err := lenient.Run()
	if err != nil {
		t.Fatalf("budget did not reset across clean boundaries: %v", err)
	}
	if rr.Result == nil {
		t.Fatal("lenient run did not complete")
	}
	if rr.Restarts != 2 {
		t.Fatalf("lifetime Restarts = %d, want 2 (reset must not hide history)", rr.Restarts)
	}
}

// TestEvictTargetedReshard pins Evict's label shifting and state folding.
func TestEvictTargetedReshard(t *testing.T) {
	cfg := testConfig("fnn3", "topk(density=0.05)", 4)
	cfg.CheckpointEvery = 4
	_, _, snaps := captureRun(t, cfg)
	snap := snaps[4]
	if snap == nil {
		t.Fatal("missing step-4 snapshot")
	}
	out, err := Evict(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.World != 3 || len(out.Workers) != 3 {
		t.Fatalf("evicted world %d/%d workers", out.World, len(out.Workers))
	}
	for r, ws := range out.Workers {
		if ws.Rank != r {
			t.Errorf("worker %d carries rank label %d", r, ws.Rank)
		}
	}
	// Survivors keep their identity: old rank 0 stays, old ranks 2,3 shift.
	if &out.Workers[0].Params[0] != &snap.Workers[0].Params[0] {
		t.Error("unshifted survivor was deep-copied")
	}
	// Error-feedback mass is conserved: the evicted rank's vectors fold into
	// survivor rank mod world, so the per-bucket elementwise sums across
	// ranks are invariant.
	for b := range snap.Workers[0].Buckets {
		for key := range snap.Workers[0].Buckets[b].Vecs {
			want := vecMass(snap.Workers, b, key)
			got := vecMass(out.Workers, b, key)
			if diff := want - got; diff > 1e-3 || diff < -1e-3 {
				t.Errorf("bucket %d %q mass not preserved: %g -> %g", b, key, want, got)
			}
		}
	}
	// Determinism: a second eviction is identical.
	out2, err := Evict(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustSnapshotBytes(t, out), mustSnapshotBytes(t, out2)) {
		t.Error("two evictions of the same snapshot diverge")
	}
	// Guard rails.
	if _, err := Evict(snap, 7); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := Evict(nil, 0); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func mustSnapshotBytes(t *testing.T, rs *cluster.RunState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHealthMonitorWorldValidation: cluster.Train rejects a monitor sized to
// a different world.
func TestHealthMonitorWorldValidation(t *testing.T) {
	cfg := testConfig("fnn3", "a2sgd", 2)
	cfg.Health = health.NewMonitor(3, health.Options{})
	if _, err := cluster.Train(cfg); err == nil {
		t.Fatal("mismatched health monitor world accepted")
	}
}
