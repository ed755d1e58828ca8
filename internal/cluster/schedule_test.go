package cluster

import (
	"strings"
	"testing"

	"a2sgd/internal/compress"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
	"a2sgd/internal/plan"
)

func fnn3Segments(t *testing.T) []nn.Segment {
	t.Helper()
	m, err := models.New(models.Config{Family: "fnn3", Seed: 1, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	return m.ParamSegments()
}

// TestScheduleLoweringBitwiseIdentical is the schedule-conformance pin: the
// schedule plan.Lower writes down over the family's segments at the run's
// worker count and the worker-agnostic one Lower returns train bitwise
// identically, and the run obeys the schedule — bucket count, overlap,
// topology and policy all come from it.
func TestScheduleLoweringBitwiseIdentical(t *testing.T) {
	holdPairs(t, []pairRow{
		{"uniform(a2sgd)", 4, 0, 0, false, "plan.Lower"},
		{"uniform(qsgd)", 4, fourBucketBytes, 0, true, "plan.Lower"},
		{mixedPolicy, 4, fourBucketBytes, 2, true, "plan.Lower"},
	})
}

// TestAutoPlannedRunEndToEnd trains with a planner-built schedule on the
// in-process fabric and checks the run obeys the schedule.
func TestAutoPlannedRunEndToEnd(t *testing.T) {
	segs := fnn3Segments(t)
	sched, err := plan.Build(segs, plan.Options{
		Workers: 4, Pricer: netsim.TwoTierTCP10G(2),
		Candidates: []string{"dense", "a2sgd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("fnn3", "dense", 4)
	cfg.Schedule = sched
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Buckets != sched.NumBuckets() {
		t.Errorf("ran %d buckets, schedule has %d", res.Buckets, sched.NumBuckets())
	}
	if res.Overlap != sched.Overlap {
		t.Errorf("overlap %v, schedule %v", res.Overlap, sched.Overlap)
	}
	if sched.Topology > 1 && res.Topology != sched.Topology {
		t.Errorf("topology %d, schedule %d", res.Topology, sched.Topology)
	}
	if res.Policy != sched.Policy {
		t.Errorf("policy %q, schedule %q", res.Policy, sched.Policy)
	}
	// The run must converge like any fnn3 quick run (not a degenerate
	// schedule): well above the 10-class floor after 3 epochs.
	if res.FinalMetric() < 0.5 {
		t.Errorf("auto-planned run reached only %.3f accuracy", res.FinalMetric())
	}
}

func TestScheduleConfigValidation(t *testing.T) {
	segs := fnn3Segments(t)
	pol, err := compress.ParsePolicy("uniform(dense)")
	if err != nil {
		t.Fatal(err)
	}
	sched := plan.Lower(segs, pol, 0, 0, false, 4)

	// Worker mismatch is rejected.
	cfg := quickCfg("fnn3", "dense", 2)
	cfg.Schedule = sched // planned for 4
	if _, err := Train(cfg); err == nil {
		t.Error("expected worker-count mismatch error")
	}
	// A schedule whose bounds don't fit the model is rejected.
	cfg = quickCfg("fnn3", "dense", 4)
	cfg.Schedule = &plan.Schedule{
		Bounds: []int{0, 128}, Specs: []*compress.Spec{{Name: "dense"}},
	}
	if _, err := Train(cfg); err == nil {
		t.Error("expected bounds-mismatch error")
	}
	// An invalid spec in the schedule is rejected up front.
	cfg = quickCfg("fnn3", "dense", 4)
	cfg.Schedule = &plan.Schedule{
		Bounds: []int{0, 9178}, Specs: []*compress.Spec{{Name: "no-such"}},
	}
	if _, err := Train(cfg); err == nil {
		t.Error("expected unknown-spec error")
	}
}

// TestLowerRejectsAuto: "auto" asks the planner for a whole schedule, so the
// lowering path — one spec per bucket at a hand-picked budget — refuses it in
// every form and names the front door that plans it.
func TestLowerRejectsAuto(t *testing.T) {
	for _, src := range []string{"auto", "auto(dense, a2sgd)", "auto(nope)"} {
		_, err := Lower("fnn3", src, fourBucketBytes, 0, true)
		if err == nil || !strings.Contains(err.Error(), "a2sgd.TrainConfig") {
			t.Errorf("Lower(%q): %v, want an error naming a2sgd.TrainConfig", src, err)
		}
	}
}
