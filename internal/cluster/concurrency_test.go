package cluster

import (
	"math"
	"slices"
	"testing"
)

// concCfg is bucketCfg plus the concurrent-execution knobs.
func concCfg(algo string, workers int, concurrency int, interleave bool) Config {
	cfg := bucketCfg(algo, workers, fourBucketBytes, true)
	cfg.Concurrency = concurrency
	cfg.Interleave = interleave
	return cfg
}

// trainFinal runs Train and returns the final synchronized weights beside the
// result, so equality checks cover every parameter bit, not just the epoch
// stats.
func trainFinal(t *testing.T, cfg Config) (*Result, []float32) {
	t.Helper()
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, res.FinalParams
}

// sameBits reports whether two weight vectors are equal bit for bit.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestConcurrencyMatrixBitwise is the mode-equivalence matrix: for a fixed
// seed and bucket plan, the deterministic overlap path (concurrency 1), the
// concurrent-collectives path (4 tag-space contexts) and the
// backprop-interleaved launch all produce bitwise-identical training — each
// bucket's exchange arithmetic is independent of the others, so neither the
// launch point nor the wire interleaving can change a single bit of the
// result. The serial synchronous run anchors the matrix.
func TestConcurrencyMatrixBitwise(t *testing.T) {
	for _, algo := range []string{"dense", "a2sgd", "qsgd"} {
		base, wantW := trainFinal(t, bucketCfg(algo, 4, fourBucketBytes, false))
		if base.Buckets < 2 {
			t.Fatalf("%s: plan produced %d buckets, want >= 2", algo, base.Buckets)
		}
		variants := []struct {
			label string
			cfg   Config
		}{
			{"overlap-det", concCfg(algo, 4, 0, false)},
			{"concurrent-4", concCfg(algo, 4, 4, false)},
			{"interleave-det", concCfg(algo, 4, 0, true)},
			{"interleave-concurrent-4", concCfg(algo, 4, 4, true)},
		}
		for _, v := range variants {
			res, w := trainFinal(t, v.cfg)
			assertRunsIdentical(t, algo+" "+v.label, base, res)
			if !sameBits(w, wantW) {
				t.Errorf("%s %s: final weights differ from the serial run", algo, v.label)
			}
		}
	}
}

// TestLSTMInterleaveBitwise extends the mode-equivalence matrix to the LSTM:
// truncated BPTT now reports per-tensor readiness from inside its last
// timestep (output projection first, then each layer top-down, embedding
// last), so the interleaved launch genuinely overlaps exchanges with the
// remaining backward — and must still be bitwise identical to the serial
// synchronous run.
func TestLSTMInterleaveBitwise(t *testing.T) {
	lstmCfg := func(concurrency, topology int, overlap, interleave bool) Config {
		cfg := lowered(quickCfg("lstm", "a2sgd", 3), "a2sgd", fourBucketBytes, topology, overlap)
		cfg.Concurrency = concurrency
		cfg.Interleave = interleave
		return cfg
	}
	base, wantW := trainFinal(t, lstmCfg(0, 0, false, false))
	if base.Buckets < 2 {
		t.Fatalf("lstm plan produced %d buckets, want >= 2", base.Buckets)
	}
	variants := []struct {
		label string
		cfg   Config
	}{
		{"overlap-det", lstmCfg(0, 0, true, false)},
		{"interleave-det", lstmCfg(0, 0, true, true)},
		{"interleave-concurrent-4", lstmCfg(4, 0, true, true)},
	}
	for _, v := range variants {
		res, w := trainFinal(t, v.cfg)
		assertRunsIdentical(t, "lstm "+v.label, base, res)
		if !sameBits(w, wantW) {
			t.Errorf("lstm %s: final weights differ from the serial run", v.label)
		}
	}
	// Hierarchical: the two-level reduction order differs from flat, so the
	// comparison is interleaved-vs-deterministic under the same topology.
	rd, hw := trainFinal(t, lstmCfg(0, 2, true, false))
	ri, iw := trainFinal(t, lstmCfg(4, 2, true, true))
	assertRunsIdentical(t, "lstm hierarchical interleave-vs-det", rd, ri)
	if !sameBits(hw, iw) {
		t.Error("lstm hierarchical: final weights differ between interleaved and deterministic runs")
	}
}

// TestLSTMInterleaveOverTCP: the LSTM interleaved launch over real loopback
// sockets matches the in-process fabric bitwise.
func TestLSTMInterleaveOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration")
	}
	cfg := lowered(quickCfg("lstm", "a2sgd", 3), "a2sgd", fourBucketBytes, 0, true)
	cfg.Interleave = true
	inproc, wantW := trainFinal(t, cfg)
	tcp := cfg
	tcp.GroupRunner = tcpRunner
	rt, w := trainFinal(t, tcp)
	assertRunsIdentical(t, "lstm interleave tcp-vs-inproc", inproc, rt)
	if !sameBits(w, wantW) {
		t.Error("lstm: final weights differ between tcp and inproc")
	}
}

// TestConcurrentInterleaveOverTCP runs the most aggressive mode — concurrent
// contexts plus backprop-interleaved launch — over real loopback sockets and
// checks it matches the in-process fabric bitwise. This exercises the TCP
// transport's tag matcher under genuinely interleaved wire traffic.
func TestConcurrentInterleaveOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration")
	}
	inproc, wantW := trainFinal(t, concCfg("a2sgd", 3, 4, true))
	tcp := concCfg("a2sgd", 3, 4, true)
	tcp.GroupRunner = tcpRunner
	rt, w := trainFinal(t, tcp)
	assertRunsIdentical(t, "a2sgd concurrent+interleave tcp-vs-inproc", inproc, rt)
	if !sameBits(w, wantW) {
		t.Error("final weights differ between tcp and inproc")
	}
}

// TestHistogramCaptureUnderInterleave: capture steps fall back to the
// post-backward launch on every rank, so the histogram sees the raw local
// gradient and the run still completes (and stays deterministic).
func TestHistogramCaptureUnderInterleave(t *testing.T) {
	cfg := concCfg("a2sgd", 2, 4, true)
	cfg.HistIters = []int{0, 5}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histograms) != 2 {
		t.Fatalf("captured %d histograms, want 2", len(res.Histograms))
	}
	if res.Histograms[0].Total() == 0 {
		t.Error("histogram 0 is empty")
	}
}

// TestConcurrencyValidation pins the knob preconditions.
func TestConcurrencyValidation(t *testing.T) {
	cfg := quickCfg("fnn3", "a2sgd", 2)
	cfg.Interleave = true
	if _, err := Train(cfg); err == nil {
		t.Error("Interleave without Overlap must fail")
	}
	cfg = quickCfg("fnn3", "a2sgd", 2)
	cfg.Concurrency = 2
	if _, err := Train(cfg); err == nil {
		t.Error("Concurrency > 1 without Overlap must fail")
	}
	cfg = bucketCfg("a2sgd", 2, 0, true)
	cfg.Concurrency = 99
	if _, err := Train(cfg); err == nil {
		t.Error("Concurrency beyond comm.MaxConcurrency must fail")
	}
}

// TestConcurrentHierarchical: tag-space contexts compose with the two-level
// topology (each shadow context replays the splits); the hierarchical
// concurrent run must match the hierarchical deterministic run bitwise.
func TestConcurrentHierarchical(t *testing.T) {
	det := lowered(concCfg("a2sgd", 4, 0, false), "a2sgd", fourBucketBytes, 2, true)
	rd, wantW := trainFinal(t, det)
	conc := lowered(concCfg("a2sgd", 4, 4, true), "a2sgd", fourBucketBytes, 2, true)
	rc, w := trainFinal(t, conc)
	assertRunsIdentical(t, "a2sgd hierarchical concurrent-vs-det", rd, rc)
	if !sameBits(w, wantW) {
		t.Error("final weights differ between hierarchical concurrent and deterministic runs")
	}
}
