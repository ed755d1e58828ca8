package compress

import (
	"fmt"
	"strings"

	"a2sgd/internal/comm"
	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

// Bucketed composes per-bucket instances of one algorithm over a contiguous
// partition of the gradient vector (a nn.BucketPlan's Bounds). Each bucket
// owns a full algorithm instance — error-feedback residuals, QSGD seeds and
// A2SGD two-level means are all per-bucket, sized to the bucket's length —
// so buckets are independent and their synchronization can be pipelined: the
// training runtime launches bucket i's exchange while bucket i+1 is still
// being gathered and encoded.
//
// Bucketed is a per-bucket runner, not an Algorithm: callers drive bucket b
// through EncodeBucketView / ExchangeBucketView on a view of that bucket's
// live gradient storage, in whatever order their pipeline wants; Name,
// PayloadBytes and the exchange kinds aggregate across buckets.
type Bucketed struct {
	algs   []Algorithm
	bounds []int // len(algs)+1 cumulative offsets; bounds[len] = n
}

// NewBucketed builds one algorithm instance per bucket. bounds holds the
// cumulative bucket offsets (len = buckets+1, bounds[0] = 0, strictly
// derived from a layer-granular plan); build constructs the instance for
// bucket b of the given element count.
func NewBucketed(bounds []int, build func(bucket, n int) Algorithm) *Bucketed {
	if len(bounds) < 2 || bounds[0] != 0 {
		panic(fmt.Sprintf("compress: invalid bucket bounds %v", bounds))
	}
	k := len(bounds) - 1
	algs := make([]Algorithm, k)
	for b := 0; b < k; b++ {
		if bounds[b+1] < bounds[b] {
			panic(fmt.Sprintf("compress: decreasing bucket bounds %v", bounds))
		}
		algs[b] = build(b, bounds[b+1]-bounds[b])
	}
	return &Bucketed{algs: algs, bounds: bounds}
}

// NumBuckets returns the bucket count.
func (bk *Bucketed) NumBuckets() int { return len(bk.algs) }

// Bounds returns the cumulative bucket offsets (not to be mutated).
func (bk *Bucketed) Bounds() []int { return bk.bounds }

// EncodeBucketView runs bucket b's local compression directly from a strided
// view of the bucket's live gradient storage (the training runtime's
// GradView of the bucket span — no gather copy).
func (bk *Bucketed) EncodeBucketView(b int, v *tensor.VecView) Payload {
	return bk.algs[b].EncodeView(v)
}

// ExchangeBucketView runs bucket b's collective, reconstructing the
// synchronized gradient directly into the view's segments (no scatter copy).
func (bk *Bucketed) ExchangeBucketView(b int, p Payload, v *tensor.VecView, c *comm.Communicator) error {
	return bk.algs[b].ExchangeView(p, v, c)
}

// PayloadBytesPerBucket returns the analytic per-worker payload of each
// bucket — the per-bucket byte counts the overlap-aware network model prices.
func (bk *Bucketed) PayloadBytesPerBucket() []int64 {
	out := make([]int64, len(bk.algs))
	for b, a := range bk.algs {
		out[b] = a.PayloadBytes(bk.bounds[b+1] - bk.bounds[b])
	}
	return out
}

// Name returns the inner name, suffixed with the bucket count
// when the partition is non-trivial. Under a mixing policy the buckets run
// different algorithms; the distinct inner names are joined in first-use
// order ("a2sgd|dense+bucketed[5]").
func (bk *Bucketed) Name() string {
	if len(bk.algs) == 1 {
		return bk.algs[0].Name()
	}
	var distinct []string
	seen := map[string]bool{}
	for _, a := range bk.algs {
		if n := a.Name(); !seen[n] {
			seen[n] = true
			distinct = append(distinct, n)
		}
	}
	return fmt.Sprintf("%s+bucketed[%d]", strings.Join(distinct, "|"), len(bk.algs))
}

// ExchangeKinds returns each bucket's dominant collective — the per-bucket
// input to the price laws (netsim.PriceSchedule). Uniform
// runs repeat one kind; mixed policies interleave allreduce- and
// allgather-style buckets.
func (bk *Bucketed) ExchangeKinds() []netsim.ExchangeKind {
	kinds := make([]netsim.ExchangeKind, len(bk.algs))
	for b, a := range bk.algs {
		kinds[b] = a.ExchangeKind()
	}
	return kinds
}

// ExchangeKind returns the first bucket's collective — the run's aggregate
// kind under a uniform policy (ExchangeKinds has the per-bucket record).
func (bk *Bucketed) ExchangeKind() netsim.ExchangeKind { return bk.algs[0].ExchangeKind() }

// PayloadBytes returns the sum of per-bucket payloads. The bucket plan fixes
// the partition, so n is ignored — unlike the inner algorithms, a Bucketed
// instance cannot price hypothetical model sizes.
func (bk *Bucketed) PayloadBytes(n int) int64 {
	var total int64
	for _, b := range bk.PayloadBytesPerBucket() {
		total += b
	}
	return total
}
