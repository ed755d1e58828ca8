package a2sgd

import (
	"strings"
	"testing"

	"a2sgd/internal/models"
)

func TestRegistryCompleteness(t *testing.T) {
	names := Algorithms()
	want := map[string]bool{
		"a2sgd": true, "a2sgd-noef": true, "a2sgd-onemean": true,
		"a2sgd-allgather": true,
		"dense":           true, "topk": true, "gaussiank": true, "qsgd": true,
		"qsgd-elias": true, "periodic": true,
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(names), len(want), names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected algorithm %q", n)
		}
	}
	// Sorted.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Algorithms() must be sorted")
		}
	}
}

func TestEvaluatedAlgorithmsAreRegistered(t *testing.T) {
	for _, n := range EvaluatedAlgorithms() {
		a, err := NewAlgorithm(n, DefaultOptions(100))
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if a.Name() == "" {
			t.Errorf("%s: empty name", n)
		}
	}
}

func TestNewAlgorithmValidation(t *testing.T) {
	if _, err := NewAlgorithm("nope", DefaultOptions(10)); err == nil {
		t.Error("unknown algorithm must error")
	}
	if _, err := NewAlgorithm("a2sgd", Options{}); err == nil {
		t.Error("missing N must error")
	}
}

func TestEveryRegisteredAlgorithmEncodes(t *testing.T) {
	g := make([]float32, 512)
	for i := range g {
		g[i] = float32(i%11) - 5
	}
	for _, name := range Algorithms() {
		spec := name
		wrapper := false
		if b, ok := Lookup(name); ok && b.Wraps > 0 {
			spec = name + "(dense)" // wrappers need an inner algorithm
			wrapper = true
		}
		a, err := NewAlgorithm(spec, DefaultOptions(len(g)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := a.Encode(g)
		if p.Bits <= 0 && !wrapper { // periodic's off-steps legitimately send 0 bits
			t.Errorf("%s: payload bits %d", name, p.Bits)
		}
		if a.PayloadBytes(len(g)) <= 0 {
			t.Errorf("%s: payload bytes", name)
		}
		a.Reset()
	}
}

func TestTrainFacadeSmoke(t *testing.T) {
	res, err := Train(TrainConfig{
		Family: "fnn3", Spec: "a2sgd", Workers: 2,
		Epochs: 2, StepsPerEpoch: 4, BatchPerWorker: 4, Momentum: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "a2sgd" || len(res.Epochs) != 2 {
		t.Errorf("result: %+v", res)
	}
	if res.PayloadBytes != 8 {
		t.Errorf("A2SGD payload %d bytes, want 8", res.PayloadBytes)
	}
	// The fabric helpers price iterations.
	if res.ModeledIterSec(IB100()) <= 0 {
		t.Error("modelled iteration time")
	}
	if IB100().Beta >= TCP10G().Beta {
		t.Error("fabric profiles")
	}
}

func TestTrainFacadeDefaultsAndErrors(t *testing.T) {
	if _, err := Train(TrainConfig{Family: "fnn3", Spec: "nope"}); err == nil {
		t.Error("unknown algorithm must error")
	}
	// Only the paper's comparator set is registered: a job file, CLI flag
	// or resume that names a spec outside it fails loudly, naming it.
	for _, spec := range []string{"dgc", "randk", "terngrad"} {
		_, err := Train(TrainConfig{Family: "fnn3", Spec: spec, Epochs: 1, StepsPerEpoch: 1, BatchPerWorker: 2})
		if err == nil || !strings.Contains(err.Error(), spec) {
			t.Errorf("spec %q: err = %v, want an error naming it", spec, err)
		}
	}
	// Defaults: algorithm a2sgd, 1 worker.
	res, err := Train(TrainConfig{Family: "fnn3", Epochs: 1, StepsPerEpoch: 2, BatchPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "a2sgd" || res.Workers != 1 {
		t.Errorf("defaults: %+v", res)
	}
}

// TestFaultRulesThatCannotFireAreRejected: a fault rule naming a rank
// outside the run's world, or with no chance of firing, is an error from
// Train and NewJob alike, naming the rule — never a run that silently
// trains without the fault.
func TestFaultRulesThatCannotFireAreRejected(t *testing.T) {
	for _, c := range []struct {
		workers      int
		faults, want string
	}{
		{2, "crash(rank=5, step=1)", "crash(rank=5, step=1) names rank 5"},
		{2, "delay(link=0-2, alpha=1ms)", "delay(link=0-2, alpha=1ms) names rank 2"},
		{4, "partition(groups=0-1|2-4)", "names rank 4"},
		{0, "straggler(rank=1, x2)", "straggler(rank=1, x=2) names rank 1"},
		{2, "loss(link=*)", "loss requires p"},
		{2, "partition(groups=0-1|1)", "rank 1 twice"},
	} {
		tc := TrainConfig{Family: "fnn3", Workers: c.workers, Epochs: 1, StepsPerEpoch: 1, BatchPerWorker: 2, Faults: c.faults}
		if _, err := Train(tc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Train(Workers %d, Faults %q) = %v, want an error containing %q", c.workers, c.faults, err, c.want)
		}
		if _, err := NewJob(tc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewJob(Workers %d, Faults %q) = %v, want an error containing %q", c.workers, c.faults, err, c.want)
		}
	}
}

func TestTrainDensityOverride(t *testing.T) {
	res, err := Train(TrainConfig{
		Family: "fnn3", Spec: "topk(density=0.01)", Workers: 2,
		Epochs: 1, StepsPerEpoch: 2, BatchPerWorker: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantK := int(0.01 * float64(res.NumParams))
	if res.PayloadBytes != int64(4*wantK) {
		t.Errorf("topk payload %d, want %d", res.PayloadBytes, 4*wantK)
	}
}

func TestFamiliesAndParamCounts(t *testing.T) {
	if len(Families()) != len(models.Families()) {
		t.Error("families mismatch")
	}
	n, err := PaperParamCount("lstm")
	if err != nil || n != 66_034_000 {
		t.Errorf("lstm params %d %v", n, err)
	}
}

func TestTrainFacadeBucketedOverlap(t *testing.T) {
	base := TrainConfig{
		Family: "fnn3", Spec: "a2sgd", Workers: 2,
		Epochs: 2, StepsPerEpoch: 4, BatchPerWorker: 8, Seed: 5,
	}
	over := base
	over.BucketBytes = 8192 // 4 layer-granular buckets on reduced fnn3
	over.Overlap = true
	rs, err := Train(base)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Train(over)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Buckets != 1 || ro.Buckets < 4 {
		t.Fatalf("bucket counts %d/%d, want 1 and >=4", rs.Buckets, ro.Buckets)
	}
	// Overlapped pipeline vs the same plan run synchronously: bit-identical.
	syncSame := over
	syncSame.Overlap = false
	rss, err := Train(syncSame)
	if err != nil {
		t.Fatal(err)
	}
	if rss.FinalMetric() != ro.FinalMetric() {
		t.Errorf("overlap changed the result: %v vs %v", ro.FinalMetric(), rss.FinalMetric())
	}
	// Per-bucket O(1) traffic and the overlap-aware price law are populated.
	if want := int64(8 * ro.Buckets); ro.PayloadBytes != want {
		t.Errorf("payload %d, want %d", ro.PayloadBytes, want)
	}
	f := IB100()
	if ro.ModeledIterSecOverlap(f) > ro.ModeledIterSecSerial(f) {
		t.Error("overlap law must not exceed the serial law")
	}
}
