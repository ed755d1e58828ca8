package netsim

// Planning query API. The planner (a2sgd/internal/plan) and the modelled
// iteration times (cluster.Result.ModeledIterSec*) ask one question of a
// network model: "what does this bucket schedule cost?" PriceSchedule answers
// it for any Pricer, so the pipeline recurrences live here once rather than
// on every fabric type.

// SchedulePrice bundles the two modelled execution times of one bucket
// schedule: the overlap pipeline makespan and the back-to-back serial sum.
type SchedulePrice struct {
	// Pipelined is the encode→collective pipeline makespan (bucket b's
	// collective hides behind the encodes of buckets b+1…).
	Pipelined float64
	// Serial runs every encode and collective back to back.
	Serial float64
}

// PriceSchedule prices one bucket schedule on a pricer: kinds[b], encSec[b]
// and bucketBytes[b] describe bucket b's collective, local compression time
// and per-worker payload (a short kinds slice repeats its last element, so a
// one-element slice prices every bucket uniformly; mixed per-bucket policies
// interleave allreduce- and allgather-style buckets in one pipeline).
//
// Pipelined models the bucketed overlap pipeline: bucket b's encode runs on
// the CPU strictly after bucket b-1's encode, and its collective starts once
// both its encode and the previous bucket's collective have finished
// (collectives execute one at a time, in order, like the communicator's
// progress worker). The makespan covers first encode start → last collective
// end:
//
//	encDone_b  = encDone_{b-1} + enc_b
//	syncDone_b = max(encDone_b, syncDone_{b-1}) + sync_b
//
// Bucket b's sync is therefore hidden behind the encode of buckets b+1…;
// with a single bucket the law degenerates to enc + sync, which is what
// Serial charges for every bucket.
func PriceSchedule(pr Pricer, kinds []ExchangeKind, encSec []float64, bucketBytes []int64, p int) SchedulePrice {
	var encDone, syncDone, serial float64
	for _, e := range encSec {
		serial += e
	}
	for b, bytes := range bucketBytes {
		sync := pr.SyncTime(kindAt(kinds, b), bytes, p)
		if b < len(encSec) {
			encDone += encSec[b]
		}
		if syncDone < encDone {
			syncDone = encDone
		}
		syncDone += sync
		serial += sync
	}
	return SchedulePrice{Pipelined: syncDone, Serial: serial}
}

// kindAt returns kinds[b], repeating the last element past the end.
func kindAt(kinds []ExchangeKind, b int) ExchangeKind {
	if b < len(kinds) {
		return kinds[b]
	}
	if len(kinds) > 0 {
		return kinds[len(kinds)-1]
	}
	return ExchangeAllreduce
}

// BucketSizer is implemented by pricers that can suggest how large a bucket
// must be before the per-collective latency of their priced (slowest) tier
// is amortized. Both Fabric and TwoTier implement it.
type BucketSizer interface {
	// AmortizedBucketBytes returns the smallest per-worker bucket payload
	// for which the latency (α) share of one collective is at most
	// latencyFrac of its total cost.
	AmortizedBucketBytes(p int, latencyFrac float64) int64
}

var (
	_ BucketSizer = Fabric{}
	_ BucketSizer = TwoTier{}
)

// AmortizedBucketBytes implements BucketSizer for a flat fabric. For the
// ring allreduce of B bytes — 2(p−1) steps of α + (B/p)β — the latency share
// is α/(α + Bβ/p), so the bound is B ≥ p·α·(1−f)/(f·β).
func (f Fabric) AmortizedBucketBytes(p int, latencyFrac float64) int64 {
	if p < 2 {
		p = 2
	}
	if latencyFrac <= 0 || latencyFrac >= 1 || f.Beta <= 0 {
		return int64(1) << 30 // degenerate: nothing to amortize against
	}
	b := float64(p) * f.Alpha * (1 - latencyFrac) / (latencyFrac * f.Beta)
	if b < 1 {
		b = 1
	}
	return int64(b)
}

// AmortizedBucketBytes implements BucketSizer for the two-tier law: the tier
// worth amortizing is the slow inter-node leader exchange, so the flat bound
// applies to the Inter fabric at the node count.
func (t TwoTier) AmortizedBucketBytes(p int, latencyFrac float64) int64 {
	_, nodes := t.shape(p)
	return t.Inter.AmortizedBucketBytes(nodes, latencyFrac)
}
