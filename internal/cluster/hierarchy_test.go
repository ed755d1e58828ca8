package cluster

import (
	"math"
	"testing"
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
