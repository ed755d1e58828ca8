package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/tensor"
)

// chaosScenarios are the recoverable fault scenarios of the property sweep:
// they perturb timing, ordering and delivery, never arithmetic.
var chaosScenarios = []string{
	"delay(link=*, alpha=30us, jitter=50us)",
	"dup(link=*, p=0.3)",
	"reorder(link=*, p=0.3)",
	"loss(link=*, p=0.1, resend=200us)",
	"straggler(rank=1, x2)",
	"dup(link=*, p=0.2) reorder(link=*, p=0.2) delay(link=*, alpha=10us)",
	"flap(rank=1, period=25ms, duty=0.7)",
	"partition(groups=0-1|2-3, after=8ms, dur=10ms)",
}

// TestChaosPropertySweep is the seeded fault-equivalence property test: a
// fixed RNG draws configurations across every axis the runtime exposes —
// algorithm spec, two-level topology, tag-space concurrency, backprop
// interleaving — pairs each with a recoverable fault scenario, and asserts
// the faulted run's final weights are bitwise identical to the serial,
// synchronous, fault-free run of the same algorithm and topology. Fault
// injection may reshape wire timing arbitrarily; it must never change a bit
// of the training result.
func TestChaosPropertySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property sweep")
	}
	algos := []string{"dense", "a2sgd", "qsgd"}
	topologies := []int{0, 2}
	concurrencies := []int{0, 4}

	// Serial fault-free baselines, keyed by algorithm and topology (the two
	// axes that change the arithmetic; overlap/concurrency/interleave and
	// faults must not).
	baselines := map[string][]float32{}
	baseline := func(algo string, topo int) []float32 {
		key := fmt.Sprintf("%s/t%d", algo, topo)
		if b, ok := baselines[key]; ok {
			return b
		}
		cfg := lowered(quickCfg("fnn3", algo, 4), algo, fourBucketBytes, topo, false)
		_, w := trainFinal(t, cfg)
		if len(w) == 0 {
			t.Fatalf("%s: baseline produced no final weights", key)
		}
		baselines[key] = w
		return w
	}

	rng := tensor.NewRNG(20260807)
	const draws = 8
	for i := 0; i < draws; i++ {
		algo := algos[rng.Intn(len(algos))]
		topo := topologies[rng.Intn(len(topologies))]
		conc := concurrencies[rng.Intn(len(concurrencies))]
		interleave := rng.Intn(2) == 1
		scenario := chaosScenarios[rng.Intn(len(chaosScenarios))]
		label := fmt.Sprintf("draw %d: %s topo=%d conc=%d interleave=%v faults=%q",
			i, algo, topo, conc, interleave, scenario)

		cfg := lowered(quickCfg("fnn3", algo, 4), algo, fourBucketBytes, topo, true)
		cfg.Concurrency = conc
		cfg.Interleave = interleave
		sc := faultnet.MustParse(fmt.Sprintf("seed(%d) %s", 100+uint64(i), scenario))
		cfg.GroupRunner = faultnet.GroupRunner(sc, false)

		res, w := trainFinal(t, cfg)
		if !sameBits(w, baseline(algo, topo)) {
			t.Errorf("%s: final weights differ from the serial fault-free run", label)
		}
		if res.Buckets < 2 {
			t.Errorf("%s: plan produced %d buckets, want >= 2", label, res.Buckets)
		}
	}
}

// TestChaosCrashSurfacesStepError: an injected crash makes Train return an
// error naming the step, the bucket and the rank promptly — no deadlock, no
// hang — under both executors, and the wrapping stays transparent to the
// typed peer failure the elastic supervisor matches on.
func TestChaosCrashSurfacesStepError(t *testing.T) {
	for _, overlap := range []bool{true, false} {
		cfg := bucketCfg("a2sgd", 4, fourBucketBytes, overlap)
		sc := faultnet.MustParse("deadline(1s) crash(rank=3, step=4)")
		cfg.GroupRunner = faultnet.GroupRunner(sc, false)
		start := time.Now()
		_, err := Train(cfg)
		if err == nil {
			t.Fatalf("overlap=%v: crash scenario trained to completion", overlap)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("overlap=%v: crash took %v to surface", overlap, elapsed)
		}
		if !strings.Contains(err.Error(), "step") {
			t.Errorf("overlap=%v: error is not step-scoped: %v", overlap, err)
		}
		if !strings.Contains(err.Error(), "rank") {
			t.Errorf("overlap=%v: error does not name a rank: %v", overlap, err)
		}
		if !strings.Contains(err.Error(), "bucket") {
			t.Errorf("overlap=%v: error does not name a bucket: %v", overlap, err)
		}
		var pe *comm.PeerError
		if !errors.As(err, &pe) && !errors.Is(err, comm.ErrGroupStop) {
			t.Errorf("overlap=%v: neither a *comm.PeerError nor a group stop shows through: %v", overlap, err)
		}
	}
}

// TestChaosStallSurfacesDeadlineError: a silent stall (the hardest failure —
// the peer stops sending but stays up) is detected by the I/O deadline and
// surfaces as a step-scoped timeout error instead of a hang.
func TestChaosStallSurfacesDeadlineError(t *testing.T) {
	cfg := bucketCfg("a2sgd", 4, fourBucketBytes, true)
	sc := faultnet.MustParse("deadline(400ms) stall(rank=2, step=3)")
	cfg.GroupRunner = faultnet.GroupRunner(sc, false)
	start := time.Now()
	_, err := Train(cfg)
	if err == nil {
		t.Fatal("stall scenario trained to completion")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("stall took %v to surface (deadline 400ms)", elapsed)
	}
	if !strings.Contains(err.Error(), "step") {
		t.Errorf("error is not step-scoped: %v", err)
	}
}

// TestChaosFaultsOverTCP: the fault wrapper composes with the real TCP
// transport — dup/reorder/delay over loopback sockets still trains to the
// bitwise fault-free result.
func TestChaosFaultsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration")
	}
	base := bucketCfg("a2sgd", 3, fourBucketBytes, false)
	_, want := trainFinal(t, base)

	cfg := bucketCfg("a2sgd", 3, fourBucketBytes, true)
	sc := faultnet.MustParse("seed(9) dup(link=*, p=0.25) reorder(link=*, p=0.25) delay(link=*, alpha=10us)")
	cfg.GroupRunner = faultnet.GroupRunner(sc, true)
	_, w := trainFinal(t, cfg)
	if !sameBits(w, want) {
		t.Error("faulted TCP run diverged from the fault-free in-process run")
	}
}
