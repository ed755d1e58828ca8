package cluster

import (
	"sync"
	"testing"

	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/netsim"
)

// fnn3 at reduced scale has 9,178 parameters in 8 tensors; an 8 KiB bucket
// budget (2,048 float32s) splits them into exactly 4 layer-granular buckets.
const fourBucketBytes = 8192

func bucketCfg(algo string, workers, bucketBytes int, overlap bool) Config {
	return lowered(quickCfg("fnn3", algo, workers), algo, bucketBytes, 0, overlap)
}

// "qsgd-seedprobe" is a test-only spec, registered the way any third-party
// compressor is: qsgd that reports the seed each instance was built with.
func init() {
	compress.Register("qsgd-seedprobe", compress.Builder{
		Summary: "test: qsgd recording its construction seed",
		Build: func(o compress.Options, _ compress.BuildArgs) (compress.Algorithm, error) {
			seedProbe.Store(o.Seed, true)
			return compress.NewQSGD(o), nil
		},
	})
}

// seedProbe collects the Options.Seed of every qsgd-seedprobe instance.
var seedProbe sync.Map

// TestBucketedA2SGDConverges: per-bucket two-level means carry strictly more
// information than one global pair (2 scalars per bucket), so bucketed A2SGD
// must still track dense convergence on fnn3.
//
// Note an intentional limit: bucketed A2SGD is a *different estimator* from
// whole-model A2SGD (per-bucket µ± instead of one global pair), so its
// trajectory cannot match the single-bucket run exactly for any float
// implementation. What holds it exactly is internal/core's Algorithm 1
// reference with lines 3–6 applied per bucket (TestTrainMatchesAlgorithm1),
// which also pins that it differs from the whole-model means; a
// global-mean-preserving bucketed variant is ROADMAP item 1.
func TestBucketedA2SGDConverges(t *testing.T) {
	dense, err := Train(bucketCfg("dense", 4, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	single, err := Train(bucketCfg("a2sgd", 4, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	bucketed, err := Train(bucketCfg("a2sgd", 4, fourBucketBytes, true))
	if err != nil {
		t.Fatal(err)
	}
	// The finer estimator must stay convergence-equivalent to whole-model
	// A2SGD: same-ballpark final accuracy on the same budget.
	if d := bucketed.FinalMetric() - single.FinalMetric(); d < -0.05 || d > 0.05 {
		t.Errorf("bucketed a2sgd %.4f vs whole-model %.4f — drifted beyond ±0.05",
			bucketed.FinalMetric(), single.FinalMetric())
	}
	if bucketed.FinalMetric() < dense.FinalMetric()-0.12 {
		t.Errorf("bucketed a2sgd %.3f much worse than dense %.3f",
			bucketed.FinalMetric(), dense.FinalMetric())
	}
	// O(1)-per-bucket traffic: 8 bytes per bucket per step.
	if want := int64(8 * bucketed.Buckets); bucketed.PayloadBytes != want {
		t.Errorf("payload %d, want %d", bucketed.PayloadBytes, want)
	}
	if len(bucketed.BucketPayloadBytes) != bucketed.Buckets {
		t.Errorf("per-bucket payloads %v", bucketed.BucketPayloadBytes)
	}
}

// TestPerBucketSeedsDiffer: every (rank, bucket) instance is built with its
// own compress.BucketSeed, so stochastic compressors decorrelate their
// per-bucket RNG streams.
func TestPerBucketSeedsDiffer(t *testing.T) {
	cfg := bucketCfg("qsgd-seedprobe", 2, fourBucketBytes, true)
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Buckets != 4 {
		t.Fatalf("buckets %d, want 4", res.Buckets)
	}
	seeds := map[uint64]bool{}
	for rank := 0; rank < 2; rank++ {
		for b := 0; b < res.Buckets; b++ {
			seed := compress.BucketSeed(cfg.Seed, rank, b)
			if _, ok := seedProbe.Load(seed); !ok {
				t.Errorf("rank %d bucket %d was not built with its BucketSeed", rank, b)
			}
			seeds[seed] = true
		}
	}
	if len(seeds) != 2*res.Buckets {
		t.Errorf("%d distinct seeds over %d (rank, bucket) instances", len(seeds), 2*res.Buckets)
	}
}

// TestOverlapOverTCP runs the overlapped bucket pipeline over real loopback
// sockets and checks it matches the in-process fabric bitwise.
func TestOverlapOverTCP(t *testing.T) {
	tcp := bucketCfg("a2sgd", 3, fourBucketBytes, true)
	tcp.GroupRunner = tcpnet.RunGroup
	trainPair(t, "a2sgd overlap tcp-vs-inproc", bucketCfg("a2sgd", 3, fourBucketBytes, true), tcp)
}

// TestOverlapModeledCheaperThanSerial: the overlap-aware iteration price
// must undercut the serial law whenever sync can hide behind encode, and
// degenerate to it for a single bucket.
func TestOverlapModeledCheaperThanSerial(t *testing.T) {
	res, err := Train(bucketCfg("a2sgd", 4, fourBucketBytes, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []netsim.Fabric{netsim.IB100(), netsim.TCP10G()} {
		over := res.ModeledIterSecOverlap(f)
		serial := res.ModeledIterSecSerial(f)
		if over >= serial {
			t.Errorf("%s: overlap %.3e not cheaper than serial %.3e", f.Name, over, serial)
		}
		if over <= res.AvgComputeSec {
			t.Errorf("%s: overlap price %.3e below pure compute", f.Name, over)
		}
	}
	// Single bucket: both laws agree (within float addition order).
	single, err := Train(bucketCfg("a2sgd", 4, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	f := netsim.IB100()
	over, serial := single.ModeledIterSecOverlap(f), single.ModeledIterSec(f)
	if diff := over - serial; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("single bucket: overlap %.3e != serial %.3e", over, serial)
	}
}

// TestModeledIterSecPricesEachExchangeKind: under a mixing policy the
// buckets use different collectives, so the serial law pays one fused
// collective per kind over that kind's buckets — not the whole payload under
// bucket 0's kind. A single-kind run still pays one collective of
// PayloadBytes, to the bit.
func TestModeledIterSecPricesEachExchangeKind(t *testing.T) {
	res, err := Train(bucketCfg("mixed(big=topk(density=0.01), small=dense, threshold=4KiB)", 2, fourBucketBytes, false))
	if err != nil {
		t.Fatal(err)
	}
	perKind := map[netsim.ExchangeKind]int64{}
	for b, k := range res.BucketExchangeKinds {
		perKind[k] += res.BucketPayloadBytes[b]
	}
	if len(perKind) != 2 || perKind[netsim.ExchangeAllreduce] == 0 || perKind[netsim.ExchangeAllgatherV] == 0 {
		t.Fatalf("mixed run's bucket kinds %v (bytes %v): want allreduce and allgather-V buckets",
			res.BucketExchangeKinds, res.BucketPayloadBytes)
	}
	base := res.AvgComputeSec + res.AvgEncodeSec
	for _, f := range []netsim.Fabric{netsim.IB100(), netsim.TCP10G()} {
		want := base + f.SyncTime(netsim.ExchangeAllreduce, perKind[netsim.ExchangeAllreduce], res.Workers) +
			f.SyncTime(netsim.ExchangeAllgatherV, perKind[netsim.ExchangeAllgatherV], res.Workers)
		got := res.ModeledIterSec(f)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: mixed run priced %.6e, want %.6e (one collective per kind)", f.Name, got, want)
		}
		if fused := base + f.SyncTime(res.ExchangeKind, res.PayloadBytes, res.Workers); got == fused {
			t.Errorf("%s: mixed run priced as one collective of bucket 0's kind", f.Name)
		}
	}

	single, err := Train(bucketCfg("topk(density=0.01)", 2, fourBucketBytes, false))
	if err != nil {
		t.Fatal(err)
	}
	f := netsim.IB100()
	if got, want := single.ModeledIterSec(f), single.AvgComputeSec+single.AvgEncodeSec+f.SyncTime(single.ExchangeKind, single.PayloadBytes, single.Workers); got != want {
		t.Errorf("single-kind run priced %v, want %v", got, want)
	}
}
