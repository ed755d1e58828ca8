package elastic

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/compress"
	_ "a2sgd/internal/core" // registers a2sgd
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/plan"
)

// testConfig builds a small bucketed run of the given spec.
func testConfig(family, spec string, workers int) cluster.Config {
	sched, err := cluster.Lower(family, spec, 4096, 0, false)
	if err != nil {
		panic(err)
	}
	return cluster.Config{
		Workers: workers, Family: family, Schedule: sched,
		Epochs: 2, StepsPerEpoch: 5, BatchPerWorker: 4,
		Seed: 7, Momentum: 0.9,
	}
}

// captureRun trains cfg while recording every delivered snapshot by step and
// the final synchronized weights.
func captureRun(t *testing.T, cfg cluster.Config) (*cluster.Result, []float32, map[int]*cluster.RunState) {
	t.Helper()
	snaps := map[int]*cluster.RunState{}
	cfg.SnapshotSink = func(rs *cluster.RunState) error {
		snaps[rs.Step] = rs
		return nil
	}
	res, err := cluster.Train(cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return res, res.FinalParams, snaps
}

// resumeRun trains cfg from a snapshot and returns the final weights.
func resumeRun(t *testing.T, cfg cluster.Config, rs *cluster.RunState) (*cluster.Result, []float32) {
	t.Helper()
	cfg.Resume = rs
	res, err := cluster.Train(cfg)
	if err != nil {
		t.Fatalf("resume Train: %v", err)
	}
	return res, res.FinalParams
}

// sameBits reports whether two weight vectors are equal bit for bit.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// encodeDecode round-trips a snapshot through the A2SV serialization.
func encodeDecode(t *testing.T, rs *cluster.RunState) *cluster.RunState {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, rs); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return got
}

func TestSnapshotSerializationRoundTrip(t *testing.T) {
	rs := &cluster.RunState{
		Family: "fnn3", Seed: 42, Epochs: 3, StepsPerEpoch: 7, Step: 14,
		World: 2, NumParams: 5, Bounds: []int{0, 3, 5},
		History: []cluster.EpochStats{{Epoch: 0, Loss: 1.5, EvalLoss: 1.25, Metric: 0.5, LR: 0.01}},
		Workers: []*cluster.WorkerState{
			{
				Rank: 0, Params: []float32{1, 2, 3, 4, 5}, ModelState: []float32{0.5, 0.25},
				Velocity: []float32{0, -1, 2, -3, 4}, SampleRNG: [4]uint64{1, 2, 3, 4}, LossSum: 2.5,
				Buckets: []compress.State{
					{Alg: "topk", Vecs: map[string][]float32{"ef": {0.1, 0.2, 0.3}}},
					{Alg: "periodic", Vecs: map[string][]float32{"ef": {0.4, 0.5}},
						Words: map[string][]uint64{"periodic.step": {9}}},
				},
			},
			{
				Rank: 1, Params: []float32{5, 4, 3, 2, 1},
				SampleRNG: [4]uint64{5, 6, 7, 8},
				Buckets:   []compress.State{{}, {Alg: "periodic"}},
			},
		},
	}
	got := encodeDecode(t, rs)
	if !reflect.DeepEqual(rs, got) {
		t.Fatalf("round-trip mismatch:\nwant %+v\ngot  %+v", rs, got)
	}

	// Identical snapshots serialize to identical bytes (sorted map keys).
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, rs); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization is not canonical: equal snapshots produced different bytes")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	rs := &cluster.RunState{
		Family: "fnn3", Seed: 1, Epochs: 1, StepsPerEpoch: 1, World: 1, NumParams: 2,
		Workers: []*cluster.WorkerState{{Params: []float32{1, 2}}},
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, rs); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); err == nil {
		t.Fatal("corrupted snapshot read back without error")
	}
	if _, err := ReadSnapshot(bytes.NewReader(good[:len(good)-2])); err == nil {
		t.Fatal("truncated snapshot read back without error")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF // magic
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), good...)
	bad[4] = 99 // version
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestRestoreBitwise resumes mid-run from a serialized snapshot and requires
// the final weights to match the uninterrupted run bit for bit — per
// model family and per stateful compressor (error feedback, QSGD's RNG
// stream, periodic's interval counter, A2SGD itself).
func TestRestoreBitwise(t *testing.T) {
	cases := []struct {
		name, family, spec string
	}{
		{"a2sgd-fnn3", "fnn3", "a2sgd"},
		{"topk-ef", "fnn3", "topk(density=0.05)"},
		{"periodic-interval", "fnn3", "periodic(topk(density=0.05), interval=2)"},
		{"qsgd-rng", "fnn3", "qsgd(levels=4)"},
		{"vgg16-batchnorm", "vgg16", "a2sgd"},
		// Names shared three ways; state nested through Residual and its
		// projection.
		{"resnet20-residual", "resnet20", "a2sgd"},
		{"lstm", "lstm", "a2sgd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.family, tc.spec, 2)
			if tc.family != "fnn3" {
				// Keep the heavier families quick.
				cfg.Epochs, cfg.StepsPerEpoch, cfg.BatchPerWorker = 1, 4, 2
			}
			cfg.CheckpointEvery = 3
			_, baseline, snaps := captureRun(t, cfg)
			snap := snaps[3]
			if snap == nil {
				t.Fatalf("no snapshot at step 3 (have %v)", stepsOf(snaps))
			}
			cfg.CheckpointEvery = 0
			cfg.SnapshotSink = nil
			// Resume through the serialized form, so the test also proves the
			// A2SV encoding preserves full fidelity.
			_, resumed := resumeRun(t, cfg, encodeDecode(t, snap))
			if len(baseline) == 0 || !sameBits(baseline, resumed) {
				t.Fatalf("resumed weights differ from the uninterrupted run (%d vs %d values)",
					len(resumed), len(baseline))
			}
		})
	}
}

func stepsOf(snaps map[int]*cluster.RunState) []int {
	var s []int
	for k := range snaps {
		s = append(s, k)
	}
	return s
}

func TestReshardIdentityAndDeterminism(t *testing.T) {
	cfg := testConfig("fnn3", "topk(density=0.05)", 4)
	cfg.CheckpointEvery = 5
	_, _, snaps := captureRun(t, cfg)
	snap := snaps[5]
	if snap == nil {
		t.Fatal("no snapshot at step 5")
	}

	same, err := Reshard(snap, 4)
	if err != nil {
		t.Fatal(err)
	}
	if same != snap {
		t.Fatal("equal-world reshard should be the identity")
	}

	for _, world := range []int{2, 3, 6, 8} {
		a, err := Reshard(snap, world)
		if err != nil {
			t.Fatalf("Reshard(%d): %v", world, err)
		}
		b, err := Reshard(snap, world)
		if err != nil {
			t.Fatalf("Reshard(%d) again: %v", world, err)
		}
		if a.World != world || len(a.Workers) != world {
			t.Fatalf("Reshard(%d) produced world %d with %d workers", world, a.World, len(a.Workers))
		}
		var ba, bb bytes.Buffer
		if err := WriteSnapshot(&ba, a); err != nil {
			t.Fatal(err)
		}
		if err := WriteSnapshot(&bb, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Fatalf("Reshard(%d) is not deterministic", world)
		}
	}

	// Shrinking must preserve accumulated error mass: the elementwise sum of
	// every per-bucket state vector across ranks is invariant.
	shrunk, err := Reshard(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	for b := range snap.Workers[0].Buckets {
		for key := range snap.Workers[0].Buckets[b].Vecs {
			want := vecMass(snap.Workers, b, key)
			got := vecMass(shrunk.Workers, b, key)
			if diff := want - got; diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("bucket %d %q mass not preserved: %g -> %g", b, key, want, got)
			}
		}
	}

	// The input snapshot must be untouched by the fold.
	var before, after bytes.Buffer
	if err := WriteSnapshot(&before, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Reshard(snap, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&after, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("Reshard mutated its input snapshot")
	}
}

func vecMass(ws []*cluster.WorkerState, b int, key string) float64 {
	var sum float64
	for _, w := range ws {
		if b >= len(w.Buckets) {
			continue
		}
		for _, x := range w.Buckets[b].Vecs[key] {
			sum += float64(x)
		}
	}
	return sum
}

// TestReshardedResumeDeterministic reshards one snapshot up and down and
// requires the resumed runs to be reproducible run to run.
func TestReshardedResumeDeterministic(t *testing.T) {
	cfg := testConfig("fnn3", "topk(density=0.05)", 4)
	cfg.CheckpointEvery = 5
	_, _, snaps := captureRun(t, cfg)
	snap := snaps[5]
	if snap == nil {
		t.Fatal("no snapshot at step 5")
	}
	for _, world := range []int{3, 6} {
		rs, err := Reshard(snap, world)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := testConfig("fnn3", "topk(density=0.05)", world)
		resA, wA := resumeRun(t, cfg2, rs)
		resB, wB := resumeRun(t, cfg2, rs)
		if !sameBits(wA, wB) {
			t.Fatalf("world %d: resharded resume is not deterministic", world)
		}
		if !reflect.DeepEqual(resA.Epochs, resB.Epochs) {
			t.Fatalf("world %d: loss trajectories differ across identical resumes", world)
		}
	}
}

// TestElasticCrashMatchesReshardedRun is the acceptance scenario: a seeded
// crash(rank=3, step=5) under the elastic supervisor must resume from the
// last snapshot, re-plan at N−1 ranks, and produce exactly the final weights
// of an uninterrupted (N−1)-rank run launched from the same resharded
// snapshot.
//
// The checkpoint boundary (step 4) is kept strictly before the crash step: a
// rule at a checkpoint step fires before that boundary's snapshot
// (TestElasticFaultAtCheckpointDeterministic), which would leave step 0 as the
// last snapshot. With one full step between boundary and crash, the crashing
// rank's step-4 collectives cannot complete until every rank has left the
// barrier, so the step-4 snapshot is deterministic.
func TestElasticCrashMatchesReshardedRun(t *testing.T) {
	cfg := testConfig("fnn3", "topk(density=0.05)", 4)
	cfg.CheckpointEvery = 4

	snaps := map[string]*cluster.RunState{}
	job := &Job{
		Config:   cfg,
		Scenario: faultnet.MustParse("deadline(5s) crash(rank=3, step=5)"),
		SnapshotSink: func(rs *cluster.RunState) error {
			snaps[fmt.Sprintf("w%d.s%d", rs.World, rs.Step)] = rs
			return nil
		},
	}
	rr, err := job.Run()
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if rr.Result == nil || rr.Paused {
		t.Fatal("elastic run did not complete")
	}
	if rr.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rr.Restarts)
	}
	if got := rr.Result.MembershipEpoch; got != 1 {
		t.Fatalf("final membership epoch = %d, want 1", got)
	}
	if len(rr.Events) != 2 || rr.Events[1].Reason != "crash(rank=3)" || rr.Events[1].World != 3 {
		t.Fatalf("events = %+v", rr.Events)
	}

	// Reference: reshard the step-4 snapshot to 3 ranks ourselves and run the
	// remainder uninterrupted.
	snap := snaps["w4.s4"]
	if snap == nil {
		t.Fatalf("missing world-4 step-4 snapshot (have %v)", keysOf(snaps))
	}
	rs3, err := Reshard(snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := testConfig("fnn3", "topk(density=0.05)", 3)
	refRes, refW := resumeRun(t, ref, rs3)

	if !sameBits(rr.Result.FinalParams, refW) {
		t.Fatal("elastic continuation does not match the uninterrupted 3-rank run from the same snapshot")
	}
	if !reflect.DeepEqual(rr.Result.Epochs, refRes.Epochs) {
		t.Fatalf("loss trajectories differ:\nelastic %+v\nref     %+v", rr.Result.Epochs, refRes.Epochs)
	}
}

func keysOf(m map[string]*cluster.RunState) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// TestElasticFaultAtCheckpointDeterministic: a step-scoped rule at a
// checkpoint step fires at the top of that boundary, before its snapshot, so
// the job has one outcome: the boundary-5 snapshot never exists, the job
// resumes from step 0 at world 3 and the preempted rank rejoins at 5. Ten runs
// must end with the same events and the same weights, bit for bit.
func TestElasticFaultAtCheckpointDeterministic(t *testing.T) {
	cfg := testConfig("fnn3", "a2sgd", 4)
	cfg.Epochs, cfg.StepsPerEpoch, cfg.BatchPerWorker, cfg.Seed, cfg.CheckpointEvery = 1, 10, 8, 1, 5
	var want []float32
	for run := 0; run < 10; run++ {
		job := &Job{Config: cfg, Scenario: faultnet.MustParse("deadline(2s) preempt(rank=3, step=5)")}
		rr, err := job.Run()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got := fmt.Sprint(rr.Events); got != "[{0 0 4 start} {1 0 3 preempt(rank=3)} {2 5 4 rejoin}]" {
			t.Fatalf("run %d: events %s", run, got)
		}
		if run == 0 {
			want = rr.Result.FinalParams
		} else if !sameBits(rr.Result.FinalParams, want) {
			t.Fatalf("run %d: final weights differ from run 0's", run)
		}
	}
}

// TestElasticPreemptRejoins shrinks on the preemption, pauses at the next
// checkpoint boundary, and grows back to full width.
func TestElasticPreemptRejoins(t *testing.T) {
	cfg := testConfig("fnn3", "a2sgd", 4)
	cfg.CheckpointEvery = 5
	job := &Job{
		Config:   cfg,
		Scenario: faultnet.MustParse("deadline(5s) preempt(rank=2, step=3)"),
	}
	rr, err := job.Run()
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if rr.Result == nil {
		t.Fatal("run did not complete")
	}
	wantReasons := []string{"start", "preempt(rank=2)", "rejoin"}
	if len(rr.Events) != len(wantReasons) {
		t.Fatalf("events = %+v", rr.Events)
	}
	for i, w := range wantReasons {
		if rr.Events[i].Reason != w {
			t.Fatalf("event %d = %+v, want reason %q", i, rr.Events[i], w)
		}
	}
	if rr.Events[1].World != 3 || rr.Events[2].World != 4 {
		t.Fatalf("world trajectory wrong: %+v", rr.Events)
	}
	if rr.Events[2].Step != 5 {
		t.Fatalf("rejoin at step %d, want checkpoint boundary 5", rr.Events[2].Step)
	}
	if rr.Result.MembershipEpoch != 2 {
		t.Fatalf("final membership epoch = %d, want 2", rr.Result.MembershipEpoch)
	}
}

// TestElasticDrainPausesWithSnapshot: a closed Drain channel stops the job at
// the next checkpoint boundary with a resumable snapshot, and resuming a new
// job from it completes the run.
func TestElasticDrainPausesWithSnapshot(t *testing.T) {
	cfg := testConfig("fnn3", "a2sgd", 2)
	cfg.CheckpointEvery = 5
	drain := make(chan struct{})
	close(drain)
	job := &Job{Config: cfg, Drain: drain}
	rr, err := job.Run()
	if err != nil {
		t.Fatalf("drained run: %v", err)
	}
	if !rr.Paused || rr.Snapshot == nil {
		t.Fatalf("expected a paused run with a snapshot, got %+v", rr)
	}
	if rr.Snapshot.Step != 5 {
		t.Fatalf("paused at step %d, want 5", rr.Snapshot.Step)
	}

	resumed := &Job{Config: cfg}
	resumed.Config.Resume = rr.Snapshot
	rr2, err := resumed.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if rr2.Result == nil || rr2.Paused {
		t.Fatal("resumed run did not complete")
	}
}

// TestPoolBoundsConcurrency runs two 2-rank jobs over a 2-slot pool; both
// must complete (the pool serializes them rather than deadlocking).
func TestPoolBoundsConcurrency(t *testing.T) {
	pool := NewPool(2)
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(seed uint64) {
			cfg := testConfig("fnn3", "a2sgd", 2)
			cfg.Seed = seed
			job := &Job{Config: cfg, Pool: pool}
			_, err := job.Run()
			done <- err
		}(uint64(11 + i))
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("pooled job: %v", err)
		}
	}
	if pool.Cap() != 2 {
		t.Fatalf("pool capacity changed: %d", pool.Cap())
	}
}

// TestPoolClampsOversizedJobs: a job wider than the pool still runs.
func TestPoolClampsOversizedJobs(t *testing.T) {
	pool := NewPool(1)
	cfg := testConfig("fnn3", "a2sgd", 2)
	job := &Job{Config: cfg, Pool: pool}
	if _, err := job.Run(); err != nil {
		t.Fatalf("oversized pooled job: %v", err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	cfg := testConfig("fnn3", "a2sgd", 2)
	cfg.CheckpointEvery = 5
	_, _, snaps := captureRun(t, cfg)
	snap := snaps[5]
	if snap == nil {
		t.Fatal("no snapshot at step 5")
	}
	path := t.TempDir() + "/job.snap"
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatal("file round-trip mismatch")
	}
}

// TestReplanPerEpoch drives the Replan hook through both of its contracts:
// with membership unchanged the replanned run is bitwise identical to a run
// on the statically built schedule (plan.Build is pure), and a crash re-plans
// exactly once more, at the shrunk world — both times on DriftModel, since
// nothing drifted.
func TestReplanPerEpoch(t *testing.T) {
	m, err := models.New(models.Config{Family: "fnn3", Seed: 7, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	segs := m.ParamSegments()
	build := func(world int, fabric netsim.Fabric) (*plan.Schedule, error) {
		return plan.Build(segs, plan.Options{Workers: world, Pricer: fabric})
	}

	// A schedule-driven config: the supervisor's Replan supplies every
	// segment's schedule, so the base carries none.
	schedConfig := func(workers int) cluster.Config {
		return cluster.Config{
			Workers: workers, Family: "fnn3",
			Epochs: 2, StepsPerEpoch: 5, BatchPerWorker: 4,
			Seed: 7, Momentum: 0.9,
		}
	}

	// Reference: a plain fixed-schedule run at world 4.
	static, err := build(4, netsim.IB100())
	if err != nil {
		t.Fatalf("plan.Build: %v", err)
	}
	ref := schedConfig(4)
	ref.Schedule = static
	_, refW, _ := captureRun(t, ref)

	// Elastic fault-free run replanning per epoch: one epoch, same bits.
	var worlds []int
	replan := func(world int, fabric netsim.Fabric) (*plan.Schedule, error) {
		if fabric != netsim.IB100() {
			t.Errorf("replan at world %d priced on %+v, want the default DriftModel IB100", world, fabric)
		}
		s, err := build(world, fabric)
		if err == nil {
			worlds = append(worlds, world)
		}
		return s, err
	}
	job := &Job{Config: schedConfig(4), Replan: replan}
	rr, err := job.Run()
	if err != nil {
		t.Fatalf("fault-free replan run: %v", err)
	}
	if len(rr.Events) != 1 || !reflect.DeepEqual(worlds, []int{4}) {
		t.Fatalf("fault-free run: events %+v, replanned worlds %v", rr.Events, worlds)
	}
	if !sameBits(rr.Result.FinalParams, refW) {
		t.Fatal("replanned run diverged from the statically scheduled run with membership unchanged")
	}

	// Crash one step past the first boundary (crashing ON a boundary races
	// the snapshot barrier against the kill): the second epoch replans at
	// world 3.
	worlds = nil
	cfg2 := schedConfig(4)
	cfg2.CheckpointEvery = 5
	job2 := &Job{
		Config:   cfg2,
		Scenario: faultnet.MustParse("deadline(5s) crash(rank=3, step=6)"),
		Replan:   replan,
	}
	rr2, err := job2.Run()
	if err != nil {
		t.Fatalf("crash replan run: %v", err)
	}
	if rr2.Restarts != 1 || !reflect.DeepEqual(worlds, []int{4, 3}) {
		t.Fatalf("crash run: restarts %d, replanned worlds %v", rr2.Restarts, worlds)
	}
	if len(rr2.Result.FinalParams) == 0 {
		t.Fatal("crash run produced no final weights")
	}
}
