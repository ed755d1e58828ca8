package cluster

import (
	"math"
	"slices"
	"testing"

	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/plan"
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

// trainPair trains a and b and requires the same epochs and final weights bit
// for bit; it returns both results for further checks.
func trainPair(t *testing.T, label string, a, b Config) (*Result, *Result) {
	t.Helper()
	ra, wa := trainFinal(t, a)
	rb, wb := trainFinal(t, b)
	if !slices.Equal(ra.Epochs, rb.Epochs) || !sameBits(wa, wb) {
		t.Errorf("%s: the runs differ: epochs %+v vs %+v", label, ra.Epochs, rb.Epochs)
	}
	return ra, rb
}

// pairRow is one row of a pairwise table: fnn3 on the schedule Lower writes
// for policy and the knobs, and a variant of it.
type pairRow struct {
	policy                string
	workers, bucket, topo int
	overlap               bool
	variant               string
}

// holdPairs trains each row's serial (or, for plan.Lower, the row's overlap)
// base and its variant — overlapped; concurrent (overlap, interleave, 4
// contexts); or on plan.Lower's schedule — and requires the same epochs and
// final weights bit for bit, both runs to report the base schedule's buckets,
// topology and policy, and each its own schedule's overlap.
func holdPairs(t *testing.T, rows []pairRow) {
	t.Helper()
	for _, tc := range rows {
		base := lowered(quickCfg("fnn3", "dense", tc.workers), tc.policy, tc.bucket, tc.topo, tc.overlap)
		v := lowered(base, tc.policy, tc.bucket, tc.topo, true)
		switch tc.variant {
		case "concurrent":
			v.Concurrency, v.Interleave = 4, true
		case "plan.Lower":
			pol, err := compress.ParsePolicy(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			v.Schedule = plan.Lower(fnn3Segments(t), pol, tc.bucket, tc.topo, tc.overlap, tc.workers)
		}
		label := tc.policy + " " + tc.variant
		rb, rv := trainPair(t, label, base, v)
		s := base.Schedule
		for _, res := range []*Result{rb, rv} {
			if res.Buckets != s.NumBuckets() || res.Topology != s.Topology || res.Policy != s.Policy {
				t.Errorf("%s: run reports %d/%d/%q, schedule says %d/%d/%q", label,
					res.Buckets, res.Topology, res.Policy, s.NumBuckets(), s.Topology, s.Policy)
			}
		}
		if rb.Overlap != s.Overlap || rv.Overlap != v.Schedule.Overlap {
			t.Errorf("%s: overlap %v/%v, schedules say %v/%v", label, rb.Overlap, rv.Overlap, s.Overlap, v.Schedule.Overlap)
		}
	}
}

// mixedPolicy is a per-bucket policy the Algorithm 1 reference does not model.
const mixedPolicy = "mixed(big=a2sgd, small=dense, threshold=8KiB)"

// TestConcurrencyMatrixBitwise is the mode-equivalence matrix for what
// internal/core's Algorithm 1 reference (TestTrainMatchesAlgorithm1) does not
// model: qsgd's stochastic rounding, topk's sparse exchange and the mixed
// policy, each serial against overlapped or concurrent.
func TestConcurrencyMatrixBitwise(t *testing.T) {
	holdPairs(t, []pairRow{
		{"qsgd", 2, 0, 0, false, "overlap"},
		{"topk", 2, 0, 0, false, "overlap"},
		{"qsgd", 4, fourBucketBytes, 0, false, "concurrent"},
		{mixedPolicy, 4, fourBucketBytes, 2, false, "concurrent"},
	})
}

// TestConcurrentInterleaveOverTCP runs the most aggressive mode — concurrent
// contexts plus backprop-interleaved launch — over real loopback sockets and
// checks it matches the in-process fabric bitwise. This exercises the TCP
// transport's tag matcher under genuinely interleaved wire traffic.
func TestConcurrentInterleaveOverTCP(t *testing.T) {
	tcp := concCfg("a2sgd", 3, 4, true)
	tcp.GroupRunner = tcpnet.RunGroup
	trainPair(t, "a2sgd concurrent+interleave tcp-vs-inproc", concCfg("a2sgd", 3, 4, true), tcp)
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
