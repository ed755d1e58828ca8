package cluster

import (
	"math"
	"testing"

	"a2sgd/internal/comm/tcpnet"
)

// TestHierarchicalTrainingConvergesLikeFlat trains the same configuration
// flat and with a two-level topology. The hierarchical reduction order
// differs, so losses match to float tolerance rather than bitwise; the final
// metric must be convergence-equivalent.
func TestHierarchicalTrainingConvergesLikeFlat(t *testing.T) {
	for _, algo := range []string{"dense", "a2sgd"} {
		cfg := quickCfg("fnn3", algo, 8)
		cfg.Epochs, cfg.StepsPerEpoch = 2, 6
		flat, err := Train(cfg)
		if err != nil {
			t.Fatalf("%s flat: %v", algo, err)
		}
		hier, err := Train(lowered(cfg, algo, 0, 4, false))
		if err != nil {
			t.Fatalf("%s hierarchical: %v", algo, err)
		}
		if hier.Topology != 4 {
			t.Errorf("%s: Result.Topology = %d, want 4", algo, hier.Topology)
		}
		for e := range flat.Epochs {
			fe, he := flat.Epochs[e], hier.Epochs[e]
			if d := math.Abs(fe.Loss - he.Loss); d > 1e-3*math.Max(1, math.Abs(fe.Loss)) {
				t.Errorf("%s epoch %d: flat loss %v vs hierarchical %v (|Δ|=%g)",
					algo, e, fe.Loss, he.Loss, d)
			}
		}
		if d := math.Abs(flat.FinalMetric() - hier.FinalMetric()); d > 0.05 {
			t.Errorf("%s: flat metric %v vs hierarchical %v", algo, flat.FinalMetric(), hier.FinalMetric())
		}
	}
}

// TestHierarchicalTrainingDeterministic pins that two hierarchical runs with
// the same seed and topology are bitwise identical.
func TestHierarchicalTrainingDeterministic(t *testing.T) {
	cfg := quickCfg("fnn3", "a2sgd", 6)
	cfg.Epochs, cfg.StepsPerEpoch = 2, 5
	cfg = lowered(cfg, "a2sgd", 4096, 3, true)
	a, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Epochs {
		if a.Epochs[e].Loss != b.Epochs[e].Loss || a.Epochs[e].Metric != b.Epochs[e].Metric {
			t.Fatalf("epoch %d differs between identical hierarchical runs: %+v vs %+v",
				e, a.Epochs[e], b.Epochs[e])
		}
	}
}

// TestHierarchicalOverlapMatchesSync pins that the overlapped hierarchical
// pipeline is bitwise identical to the synchronous hierarchical path — the
// progress worker executes the same two-level collectives in the same order.
func TestHierarchicalOverlapMatchesSync(t *testing.T) {
	cfg := quickCfg("fnn3", "dense", 6)
	cfg.Epochs, cfg.StepsPerEpoch = 2, 5
	sync, err := Train(lowered(cfg, "dense", 4096, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	over, err := Train(lowered(cfg, "dense", 4096, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	for e := range sync.Epochs {
		if sync.Epochs[e].Loss != over.Epochs[e].Loss {
			t.Fatalf("epoch %d: sync loss %v != overlap loss %v",
				e, sync.Epochs[e].Loss, over.Epochs[e].Loss)
		}
	}
}

// TestHierarchicalTrainingOverTCP runs a small hierarchical training job on
// the real TCP fabric: the two-level schedules must be transport agnostic.
func TestHierarchicalTrainingOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := quickCfg("fnn3", "dense", 4)
	cfg.Epochs, cfg.StepsPerEpoch = 1, 4
	cfg = lowered(cfg, "dense", 0, 2, false)
	cfg.GroupRunner = tcpnet.RunGroup
	tcp, err := Train(cfg)
	if err != nil {
		t.Fatalf("hierarchical TCP training: %v", err)
	}
	cfg.GroupRunner = nil
	inproc, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dense arithmetic is transport independent: identical collectives,
	// identical schedule, identical results.
	for e := range inproc.Epochs {
		if inproc.Epochs[e].Loss != tcp.Epochs[e].Loss {
			t.Fatalf("epoch %d: inproc loss %v != tcp loss %v",
				e, inproc.Epochs[e].Loss, tcp.Epochs[e].Loss)
		}
	}
}
