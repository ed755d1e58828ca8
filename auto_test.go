package a2sgd

import (
	"testing"

	"a2sgd/internal/models"
	"a2sgd/internal/plan"
)

func fnn3Schedule(t *testing.T, o PlanOptions) *Schedule {
	t.Helper()
	sched, err := BuildSchedule("fnn3", o)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func assertFacadeRunsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("%s: epoch counts %d != %d", label, len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		if a.Epochs[i].Loss != b.Epochs[i].Loss || a.Epochs[i].Metric != b.Epochs[i].Metric {
			t.Errorf("%s: epoch %d diverged: %+v vs %+v", label, i, a.Epochs[i], b.Epochs[i])
		}
	}
}

// TestTrainLegacyKnobsMatchLoweredSchedule pins the façade acceptance
// criterion: a legacy TrainConfig{BucketBytes, Policy, Topology} run is
// bitwise-identical to the same run driven by its lowered Schedule.
func TestTrainLegacyKnobsMatchLoweredSchedule(t *testing.T) {
	base := TrainConfig{
		Family: "fnn3", Workers: 4,
		Epochs: 2, StepsPerEpoch: 4, BatchPerWorker: 8, Seed: 5, Momentum: 0.9,
	}
	for _, tc := range []struct {
		name             string
		policy           string
		bucket, topology int
		overlap          bool
	}{
		{"bucketed qsgd", "uniform(qsgd(levels=8))", 8192, 0, true},
		{"mixed two-level", "mixed(big=a2sgd, small=dense, threshold=8KiB)", 8192, 2, false},
	} {
		legacy := base
		legacy.Policy = tc.policy
		legacy.BucketBytes = tc.bucket
		legacy.Topology = tc.topology
		legacy.Overlap = tc.overlap
		lres, err := Train(legacy)
		if err != nil {
			t.Fatalf("%s legacy: %v", tc.name, err)
		}

		pol, err := ParsePolicy(tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.New(models.Config{Family: "fnn3", Seed: 1, Reduced: true})
		if err != nil {
			t.Fatal(err)
		}
		lowered := base
		lowered.Schedule = plan.Lower(m.ParamSegments(), pol, tc.bucket, tc.topology, tc.overlap, base.Workers)
		sres, err := Train(lowered)
		if err != nil {
			t.Fatalf("%s lowered: %v", tc.name, err)
		}
		assertFacadeRunsIdentical(t, tc.name, lres, sres)
		if lres.Buckets != sres.Buckets || lres.Topology != sres.Topology || lres.Overlap != sres.Overlap {
			t.Errorf("%s: metadata diverged: %d/%d/%v vs %d/%d/%v", tc.name,
				lres.Buckets, lres.Topology, lres.Overlap, sres.Buckets, sres.Topology, sres.Overlap)
		}
	}
}

// TestTrainAutoPolicyPlans runs the "auto" policy end to end on the
// in-process fabric: the façade must route it through the planner and
// produce a converging, schedule-conformant run.
func TestTrainAutoPolicyPlans(t *testing.T) {
	res, err := Train(TrainConfig{
		Family: "fnn3", Workers: 4, Policy: "auto",
		Epochs: 3, StepsPerEpoch: 8, BatchPerWorker: 8, Seed: 7, Momentum: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "auto(dense, topk, qsgd, gaussiank, a2sgd)" {
		t.Errorf("policy %q", res.Policy)
	}
	if !res.Overlap {
		t.Error("auto runs must use the overlapped pipeline")
	}
	if res.FinalMetric() < 0.5 {
		t.Errorf("auto-planned fnn3 reached only %.3f accuracy", res.FinalMetric())
	}
}

// TestTrainAutoOverTCP pins transport independence for auto-planned runs:
// the same schedule over loopback TCP matches the in-process fabric bitwise.
func TestTrainAutoOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration")
	}
	cfg := TrainConfig{
		Family: "fnn3", Workers: 3, Policy: "auto(dense, a2sgd)",
		Epochs: 2, StepsPerEpoch: 4, BatchPerWorker: 4, Seed: 9, Momentum: 0.9,
	}
	inproc, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TCP = true
	tcp, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertFacadeRunsIdentical(t, "auto tcp-vs-inproc", inproc, tcp)
}

func TestTrainScheduleConflicts(t *testing.T) {
	sched := fnn3Schedule(t, PlanOptions{Workers: 2, Pricer: IB100()})
	base := TrainConfig{
		Family: "fnn3", Workers: 2, Schedule: sched,
		Epochs: 1, StepsPerEpoch: 2, BatchPerWorker: 2,
	}
	for _, mutate := range []func(*TrainConfig){
		func(tc *TrainConfig) { tc.Spec = "a2sgd" },
		func(tc *TrainConfig) { tc.Policy = "uniform(dense)" },
		func(tc *TrainConfig) { tc.BucketBytes = 4096 },
		func(tc *TrainConfig) { tc.Overlap = true },
		func(tc *TrainConfig) { tc.Topology = 2 },
	} {
		tc := base
		mutate(&tc)
		if _, err := Train(tc); err == nil {
			t.Errorf("config %+v: expected schedule-conflict error", tc)
		}
	}
	// The unmutated schedule run works.
	if _, err := Train(base); err != nil {
		t.Fatalf("schedule run: %v", err)
	}
}

// TestAutoPolicyPinsRespected: BucketBytes and Topology alongside "auto"
// pin those axes of the planner's search.
func TestAutoPolicyPinsRespected(t *testing.T) {
	res, err := Train(TrainConfig{
		Family: "fnn3", Workers: 4, Policy: "auto(a2sgd)",
		BucketBytes: 8192, Topology: 2,
		Epochs: 1, StepsPerEpoch: 2, BatchPerWorker: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buckets < 4 {
		t.Errorf("pinned 8KiB budget yielded %d buckets", res.Buckets)
	}
	if res.Topology != 2 {
		t.Errorf("pinned topology ignored: %d", res.Topology)
	}
	if res.Algorithm == "dense" {
		t.Errorf("pinned candidate ignored: %s", res.Algorithm)
	}
}

// TestAutoPolicyRejectsBadCandidates: "auto" takes candidate specs only, and
// each must be a buildable spec — the planner refuses the run before any
// worker starts.
func TestAutoPolicyRejectsBadCandidates(t *testing.T) {
	for _, policy := range []string{"auto(nope)", "auto(big=dense)", "auto(topk(density=7))", "auto(dense, 0.5)"} {
		_, err := Train(TrainConfig{Family: "fnn3", Workers: 2, Policy: policy, Epochs: 1, StepsPerEpoch: 1})
		if err == nil {
			t.Errorf("Policy %q: expected a bad-candidate error", policy)
		}
	}
}

// TestAutoPolicyResumesAtSnapshotWorld: the snapshot's world size wins over
// Workers on every configuration path — "auto" must price and stamp its
// schedule at the resumed world, exactly as a Spec run resumes there.
func TestAutoPolicyResumesAtSnapshotWorld(t *testing.T) {
	for _, algo := range []TrainConfig{{Policy: "auto"}, {Spec: "a2sgd"}} {
		path := t.TempDir() + "/run.snap"
		cfg := algo
		cfg.Family, cfg.Workers, cfg.Seed = "fnn3", 2, 3
		cfg.Epochs, cfg.StepsPerEpoch, cfg.BatchPerWorker = 2, 4, 4
		cfg.CheckpointEvery, cfg.SnapshotPath = 4, path
		full, err := Train(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", algo, err)
		}
		cfg.SnapshotPath, cfg.ResumePath, cfg.Workers = "", path, 4
		resumed, err := Train(cfg)
		if err != nil {
			t.Fatalf("%+v resumed with Workers 4: %v", algo, err)
		}
		if resumed.Workers != 2 {
			t.Errorf("%+v: resumed at world %d, want the snapshot's 2", algo, resumed.Workers)
		}
		assertFacadeRunsIdentical(t, "resumed-vs-uninterrupted", full, resumed)
	}
}

func TestBuildScheduleUnknownFamily(t *testing.T) {
	if _, err := BuildSchedule("nope", PlanOptions{Workers: 2, Pricer: IB100()}); err == nil {
		t.Fatal("expected unknown-family error")
	}
}
