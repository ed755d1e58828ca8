package a2sgd

import (
	"strings"
	"testing"
)

// smallRun is the shared reduced-scale configuration of the policy tests.
func smallRun() TrainConfig {
	return TrainConfig{
		Family: "fnn3", Workers: 2,
		Epochs: 2, StepsPerEpoch: 4, BatchPerWorker: 8,
		Momentum: 0.9, Seed: 7,
	}
}

// epochsEqual requires two runs to agree bitwise on every per-epoch number.
func epochsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("%s: epoch counts %d vs %d", label, len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		x, y := a.Epochs[i], b.Epochs[i]
		if x.Loss != y.Loss || x.EvalLoss != y.EvalLoss || x.Metric != y.Metric {
			t.Fatalf("%s: epoch %d differs: %+v vs %+v", label, i, x, y)
		}
	}
}

// TestSpecBackCompatBitwise: the spellings of one configuration — a bare
// Spec, uniform(spec), and (for a2sgd) the empty default — lower to the same
// schedule and must produce bitwise-identical runs.
func TestSpecBackCompatBitwise(t *testing.T) {
	for _, spec := range []string{"a2sgd", "topk(density=0.01)", "qsgd(levels=8)", "dense"} {
		specCfg := smallRun()
		specCfg.Spec = spec
		specRes, err := Train(specCfg)
		if err != nil {
			t.Fatalf("%s spec: %v", spec, err)
		}
		polCfg := smallRun()
		polCfg.Spec = "uniform(" + spec + ")"
		polRes, err := Train(polCfg)
		if err != nil {
			t.Fatalf("%s policy: %v", spec, err)
		}
		epochsEqual(t, spec+"/policy", specRes, polRes)
		if specRes.PayloadBytes != polRes.PayloadBytes {
			t.Errorf("%s: payload %d vs %d", spec, specRes.PayloadBytes, polRes.PayloadBytes)
		}
		if spec == "a2sgd" {
			defRes, err := Train(smallRun())
			if err != nil {
				t.Fatalf("default: %v", err)
			}
			epochsEqual(t, "default", specRes, defRes)
		}
	}
}

// TestMixedPolicyEndToEnd: the acceptance scenario — a mixed policy with
// BucketBytes set runs end to end on the in-process and TCP fabrics, is
// deterministic per seed, and actually mixes algorithms across buckets.
func TestMixedPolicyEndToEnd(t *testing.T) {
	// fnn3 at an 8 KiB budget buckets into raw sizes [16384, 256, 12288,
	// 7784]B, so threshold=8KiB sends buckets 0 and 2 to the big branch.
	cfg := smallRun()
	cfg.Spec = "mixed(big=a2sgd, small=dense, threshold=8KiB)"
	cfg.BucketBytes = 8192

	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Buckets < 4 {
		t.Fatalf("buckets = %d, want >= 4", res.Buckets)
	}
	if !strings.Contains(res.Algorithm, "a2sgd") || !strings.Contains(res.Algorithm, "dense") {
		t.Errorf("composition %q does not mix a2sgd and dense", res.Algorithm)
	}
	if res.Policy != "mixed(big=a2sgd, small=dense, threshold=8KiB)" {
		t.Errorf("Result.Policy = %q", res.Policy)
	}
	// Mixed payload: 8 B for each big (A2SGD) bucket, raw bytes for each
	// small (dense) bucket — strictly between the uniform extremes.
	if res.PayloadBytes != 8+256+8+7784 {
		t.Errorf("mixed payload %d, want %d", res.PayloadBytes, 8+256+8+7784)
	}
	// Deterministic per seed.
	res2, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochsEqual(t, "rerun", res, res2)
	// Identical over real TCP sockets (transport-agnostic collectives).
	tcpCfg := cfg
	tcpCfg.TCP = true
	tcpRes, err := Train(tcpCfg)
	if err != nil {
		t.Fatal(err)
	}
	epochsEqual(t, "tcp", res, tcpRes)
	// The modelled price laws accept the mixed run.
	f := IB100()
	if res.ModeledIterSecOverlap(f) > res.ModeledIterSecSerial(f) {
		t.Error("overlap law must not exceed the serial law")
	}
	// The overlapped pipeline stays bitwise-identical under a policy.
	ovCfg := cfg
	ovCfg.Overlap = true
	ovRes, err := Train(ovCfg)
	if err != nil {
		t.Fatal(err)
	}
	epochsEqual(t, "overlap", res, ovRes)
}

// TestMixedReproducesUniform: when both branches carry the same spec, a
// mixed run is bitwise-identical to the uniform run on the same plan.
func TestMixedReproducesUniform(t *testing.T) {
	mixCfg := smallRun()
	mixCfg.Spec = "mixed(big=a2sgd, small=a2sgd, threshold=8KiB)"
	mixCfg.BucketBytes = 8192
	uniCfg := smallRun()
	uniCfg.Spec = "uniform(a2sgd)"
	uniCfg.BucketBytes = 8192
	mix, err := Train(mixCfg)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Train(uniCfg)
	if err != nil {
		t.Fatal(err)
	}
	epochsEqual(t, "mixed-vs-uniform", mix, uni)
	if mix.PayloadBytes != uni.PayloadBytes {
		t.Errorf("payloads differ: %d vs %d", mix.PayloadBytes, uni.PayloadBytes)
	}
}

// TestWrapperSpecTrains: spec-level composition (round reduction over
// quantization) runs through the façade.
func TestWrapperSpecTrains(t *testing.T) {
	cfg := smallRun()
	cfg.Spec = "periodic(qsgd(levels=8), interval=2)"
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "qsgd-every2" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
}

// TestTrainFieldConflicts: the redesigned config rejects ambiguous
// combinations instead of guessing.
func TestTrainFieldConflicts(t *testing.T) {
	cases := []struct {
		mutate  func(*TrainConfig)
		wantSub string
	}{
		{func(tc *TrainConfig) { tc.Spec = "topk(density=2)" }, "out of range"},
		{func(tc *TrainConfig) { tc.Spec = "zigzag(a=1)" }, "unknown policy"},
		{func(tc *TrainConfig) { tc.Spec = "periodic(interval=2)" }, "takes 1 inner"},
	}
	for i, c := range cases {
		cfg := smallRun()
		c.mutate(&cfg)
		_, err := Train(cfg)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("case %d: error %v, want substring %q", i, err, c.wantSub)
		}
	}
}

// TestUnknownSpecErrorListsSignatures: the unknown-algorithm error exposes
// the full registry with parameter signatures (satellite requirement).
func TestUnknownSpecErrorListsSignatures(t *testing.T) {
	cfg := smallRun()
	cfg.Spec = "nope"
	_, err := Train(cfg)
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"topk(density=float)", "qsgd(levels=int)", "a2sgd", "periodic(inner, interval=int)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
}
