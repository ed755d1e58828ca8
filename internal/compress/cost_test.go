package compress

import (
	"testing"

	"a2sgd/internal/netsim"
)

// TestSpecCostMatchesAlgorithms pins the planning contract: for every
// registered leaf builtin, the cost model's payload and exchange kind must
// agree with the built algorithm's PayloadBytes/ExchangeKind (within the
// affine model's integer rounding), so planned prices and measured-run
// prices speak the same accounting.
func TestSpecCostMatchesAlgorithms(t *testing.T) {
	for _, src := range []string{
		"dense", "topk", "topk(density=0.05)", "gaussiank",
		"qsgd", "qsgd(levels=8)", "qsgd-elias",
	} {
		for _, n := range []int{1000, 4096, 100_000} {
			s, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			o := DefaultOptions(n)
			cm, err := SpecCost(s, o)
			if err != nil {
				t.Fatalf("SpecCost(%s): %v", src, err)
			}
			a, err := Build(s, o)
			if err != nil {
				t.Fatal(err)
			}
			got, want := cm.PayloadBytes(n), a.PayloadBytes(n)
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			// Affine model vs exact integer accounting: allow the fixed-part
			// slack (k>=1 floor, word rounding).
			if diff > 8 {
				t.Errorf("%s n=%d: cost model payload %d, algorithm %d", src, n, got, want)
			}
			if cm.Kind != a.ExchangeKind() {
				t.Errorf("%s: cost model kind %v, algorithm %v", src, cm.Kind, a.ExchangeKind())
			}
		}
	}
}

func TestSpecCostPeriodicAmortizes(t *testing.T) {
	n := 10_000
	inner, err := SpecCost(mustParse(t, "topk"), DefaultOptions(n))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := SpecCost(mustParse(t, "periodic(topk, interval=4)"), DefaultOptions(n))
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Kind != inner.Kind {
		t.Errorf("wrapper kind %v != inner %v", wrapped.Kind, inner.Kind)
	}
	if got, want := wrapped.PayloadBytes(n), inner.PayloadBytes(n)/4; got > want+4 || got < want-4 {
		t.Errorf("amortized payload %d, want ~%d", got, want)
	}
	if wrapped.EncSec(n) >= inner.EncSec(n) {
		t.Errorf("amortized encode %v not below inner %v", wrapped.EncSec(n), inner.EncSec(n))
	}
}

// TestSpecCostFallbackSampling registers a throwaway algorithm without a
// Cost hook and checks the sampled affine model reproduces its payload law.
func TestSpecCostFallbackSampling(t *testing.T) {
	Register("costless-test", Builder{
		Summary: "test-only: no Cost hook",
		Build: func(o Options, _ BuildArgs) (Algorithm, error) {
			return NewDense(o), nil
		},
	})
	cm, err := SpecCost(mustParse(t, "costless-test"), DefaultOptions(512))
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.PayloadBytes(512); got != 4*512 {
		t.Errorf("sampled payload %d, want %d", got, 4*512)
	}
	if cm.Kind != netsim.ExchangeAllreduce {
		t.Errorf("sampled kind %v", cm.Kind)
	}
	if cm.EncSecPerElem <= 0 {
		t.Errorf("fallback encode estimate %v", cm.EncSecPerElem)
	}
}

func TestSpecCostUnknownName(t *testing.T) {
	if _, err := SpecCost(&Spec{Name: "no-such-algo"}, DefaultOptions(8)); err == nil {
		t.Fatal("expected unknown-name error")
	}
	if _, err := SpecCost(mustParse(t, "dense"), Options{}); err == nil {
		t.Fatal("expected N>0 error")
	}
}

func TestBucketSeedFormula(t *testing.T) {
	// Bucket 0 must keep the historical per-rank derivation exactly.
	if got, want := BucketSeed(7, 3, 0), uint64(7*31+3+1); got != want {
		t.Errorf("bucket 0 seed %d, want %d", got, want)
	}
	seen := map[uint64]bool{}
	for rank := 0; rank < 4; rank++ {
		for bucket := 0; bucket < 4; bucket++ {
			s := BucketSeed(7, rank, bucket)
			if seen[s] {
				t.Errorf("duplicate seed %d at rank %d bucket %d", s, rank, bucket)
			}
			seen[s] = true
		}
	}
}

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
