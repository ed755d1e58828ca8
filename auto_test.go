package a2sgd

import (
	"math"
	"slices"
	"strings"
	"testing"

	"a2sgd/internal/compress"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
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
// criterion: a legacy TrainConfig{BucketBytes, Spec, Topology} run is
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
		legacy.Spec = tc.policy
		legacy.BucketBytes = tc.bucket
		legacy.Topology = tc.topology
		legacy.Overlap = tc.overlap
		lres, err := Train(legacy)
		if err != nil {
			t.Fatalf("%s legacy: %v", tc.name, err)
		}

		pol, err := compress.ParsePolicy(tc.policy)
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
		Family: "fnn3", Workers: 4, Spec: "auto",
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
		Family: "fnn3", Workers: 3, Spec: "auto(dense, a2sgd)",
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
		func(tc *TrainConfig) { tc.Spec = "uniform(dense)" },
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
		Family: "fnn3", Workers: 4, Spec: "auto(a2sgd)",
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
		_, err := Train(TrainConfig{Family: "fnn3", Workers: 2, Spec: policy, Epochs: 1, StepsPerEpoch: 1})
		if err == nil {
			t.Errorf("Spec %q: expected a bad-candidate error", policy)
		}
	}
}

// TestAutoPolicyResumesAtSnapshotWorld: the snapshot's world size wins over
// Workers on every configuration path — "auto" must price and stamp its
// schedule at the resumed world (planned at Workers, Train refuses it as
// planned for the wrong worker count), the resumed run must be at that
// world, and it must finish the uninterrupted run's curve.
func TestAutoPolicyResumesAtSnapshotWorld(t *testing.T) {
	for _, algo := range []TrainConfig{{Spec: "auto"}, {Spec: "a2sgd"}} {
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
		if algo.Spec == "auto" {
			lowered, _, _, err := lower(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w := lowered.Schedule.Workers; w != 2 {
				t.Errorf("resumed plan stamped for %d workers, want the snapshot's 2", w)
			}
		}
		// A resumed run's fault rules name the ranks of the world it
		// started with, so Workers does not bound them.
		rc := cfg
		rc.Workers, rc.Faults = 0, "straggler(rank=1, x2)"
		if _, _, _, err := lower(rc); err != nil {
			t.Errorf("%+v resumed with Workers 0 and a rank-1 rule: %v", algo, err)
		}
		resumed, err := Train(cfg)
		if err != nil {
			t.Fatalf("%+v resumed with Workers 4: %v", algo, err)
		}
		if resumed.Workers != 2 {
			t.Errorf("%+v: resumed at world %d, want the snapshot's 2", algo, resumed.Workers)
		}
		assertFacadeRunsIdentical(t, "resumed-vs-uninterrupted", full, resumed)
		if got, want := resumed.Epochs[len(resumed.Epochs)-1], full.Epochs[len(full.Epochs)-1]; got != want {
			t.Errorf("%+v: resumed final epoch %+v, uninterrupted %+v", algo, got, want)
		}
	}
}

func TestBuildScheduleUnknownFamily(t *testing.T) {
	if _, err := BuildSchedule("nope", PlanOptions{Workers: 2, Pricer: IB100()}); err == nil {
		t.Fatal("expected unknown-family error")
	}
}

// TestAutoFabricMatchesHandPlanning pins auto(fabric=X) to the schedule the
// trainer CLI's former -auto -fabric X path planned by hand, over every
// fabric, pinned width and world size: a flat fabric with Topology > 1 is
// promoted to its nvlink+ pair at that width, a pair with no pinned width is
// swept up to 4-slot nodes.
func TestAutoFabricMatchesHandPlanning(t *testing.T) {
	for _, fabric := range []string{"ib100", "tcp10g", "nvlink+ib100", "nvlink+tcp10g"} {
		for _, topology := range []int{0, 2} {
			for _, world := range []int{2, 8} {
				name := fabric
				if topology > 1 && (name == "ib100" || name == "tcp10g") {
					name = "nvlink+" + name
				}
				width := topology
				if width <= 1 {
					width = 4
				}
				var pricer Pricer
				switch name {
				case "ib100":
					pricer = IB100()
				case "tcp10g":
					pricer = TCP10G()
				case "nvlink+ib100":
					pricer = TwoTierIB100(width)
				case "nvlink+tcp10g":
					pricer = TwoTierTCP10G(width)
				}
				o := PlanOptions{Workers: world, Pricer: pricer}
				if topology > 1 {
					o.RanksPerNode = []int{topology}
				}
				want := fnn3Schedule(t, o)

				cfg, _, _, err := lower(TrainConfig{
					Family: "fnn3", Workers: world, Topology: topology,
					Spec: "auto(fabric=" + fabric + ")",
				})
				if err != nil {
					t.Fatalf("%s topology=%d world=%d: %v", fabric, topology, world, err)
				}
				got := cfg.Schedule
				if !slices.Equal(got.Bounds, want.Bounds) || got.Composition() != want.Composition() ||
					got.Topology != want.Topology || got.PricedOn != want.PricedOn {
					t.Errorf("%s topology=%d world=%d: planned %v %s topo=%d on %s, hand-planned %v %s topo=%d on %s",
						fabric, topology, world, got.Bounds, got.Composition(), got.Topology, got.PricedOn,
						want.Bounds, want.Composition(), want.Topology, want.PricedOn)
				}
				if !slices.EqualFunc(got.Specs, want.Specs, func(a, b *Spec) bool { return a.String() == b.String() }) {
					t.Errorf("%s topology=%d world=%d: specs %v, want %v", fabric, topology, world, got.Specs, want.Specs)
				}
			}
		}
	}
}

// TestAutoRejectsUnknownFabricAndKeys: fabric= names one of netsim's
// fabrics (the error lists them), and it is auto's only key.
func TestAutoRejectsUnknownFabricAndKeys(t *testing.T) {
	_, err := Train(TrainConfig{Family: "fnn3", Workers: 2, Spec: "auto(fabric=nope)"})
	if err == nil {
		t.Fatal("auto(fabric=nope): expected an unknown-fabric error")
	}
	for _, name := range netsim.FabricNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-fabric error %q does not list %s", err, name)
		}
	}
	for _, policy := range []string{"auto(width=4)", "auto(a2sgd, fabric=ib100, budget=8KiB)", "auto(fabric=ib100(x=1))"} {
		if _, err := Train(TrainConfig{Family: "fnn3", Workers: 2, Spec: policy}); err == nil {
			t.Errorf("Spec %q: expected an error", policy)
		}
	}
}

// assertSameWeights compares two runs' final weights bit for bit.
func assertSameWeights(t *testing.T, label string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d weights", label, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: weight %d differs: %g vs %g", label, i, a[i], b[i])
		}
	}
}

// TestNewJobMatchesTrain: with no faults, the elastic job NewJob lowers
// trains bitwise what Train trains — for a knob-lowered spec and for a
// re-planning auto job — and persists the same snapshots.
func TestNewJobMatchesTrain(t *testing.T) {
	for _, algo := range []TrainConfig{
		{Spec: "a2sgd", BucketBytes: 8192},
		{Spec: "auto(a2sgd, dense, fabric=tcp10g)"},
	} {
		tc := algo
		tc.Family, tc.Workers, tc.Seed, tc.Momentum = "fnn3", 3, 4, 0.9
		tc.Epochs, tc.StepsPerEpoch, tc.BatchPerWorker = 2, 4, 4
		tc.CheckpointEvery, tc.SnapshotPath = 4, t.TempDir()+"/job.snap"
		want, err := Train(tc)
		if err != nil {
			t.Fatal(err)
		}
		job, err := NewJob(tc)
		if err != nil {
			t.Fatal(err)
		}
		if (job.Replan != nil) != strings.HasPrefix(algo.Spec, "auto") {
			t.Errorf("%+v: Replan set = %v", algo, job.Replan != nil)
		}
		rr, err := job.Run()
		if err != nil {
			t.Fatalf("%+v: job: %v", algo, err)
		}
		assertFacadeRunsIdentical(t, "job-vs-train", want, rr.Result)
		assertSameWeights(t, "job-vs-train", want.FinalParams, rr.Result.FinalParams)
		if rr.Snapshot == nil || rr.Snapshot.Step != 4 {
			t.Errorf("%+v: job delivered snapshot %+v, want the step-4 boundary", algo, rr.Snapshot)
		}
	}
}

// TestAutoJobReplansAfterCrash: an auto job that loses rank 3 re-plans at
// the shrunk world, priced on the auto fabric.
func TestAutoJobReplansAfterCrash(t *testing.T) {
	job, err := NewJob(TrainConfig{
		Family: "fnn3", Workers: 4, Spec: "auto(fabric=tcp10g)", Seed: 2,
		Epochs: 1, StepsPerEpoch: 8, BatchPerWorker: 4, CheckpointEvery: 4,
		Faults: "deadline(5s) crash(rank=3, step=5)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.DriftModel != TCP10G() {
		t.Errorf("DriftModel = %+v, want the auto fabric's flat tier", job.DriftModel)
	}
	// Run calls Replan on the calling goroutine, once per segment.
	var worlds []int
	var fabrics []string
	replan := job.Replan
	job.Replan = func(world int, fabric Fabric) (*Schedule, error) {
		worlds, fabrics = append(worlds, world), append(fabrics, fabric.Name)
		sched, err := replan(world, fabric)
		if err == nil && (sched.Workers != world || sched.PricedOn != "tcp10g") {
			t.Errorf("replan at world %d: schedule for %d workers on %s", world, sched.Workers, sched.PricedOn)
		}
		return sched, err
	}
	rr, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(worlds, []int{4, 3}) || !slices.Equal(fabrics, []string{"tcp10g", "tcp10g"}) {
		t.Errorf("replanned at worlds %v on %v, want [4 3] on tcp10g", worlds, fabrics)
	}
	if rr.Result.Workers != 3 || rr.Restarts != 1 {
		t.Errorf("finished at world %d after %d restarts, want 3 after 1", rr.Result.Workers, rr.Restarts)
	}
}
