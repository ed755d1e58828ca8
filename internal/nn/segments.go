package nn

import "fmt"

// Segment locates one learnable tensor inside the flattened parameter
// vector: the half-open range [Off, Off+Len). Segments are reported in
// Params() order — the layout — so a bucketing scheme can partition the
// flattened vector at layer granularity.
type Segment struct {
	// Name is the owning tensor's name (layer + tensor role).
	Name string
	// Off is the segment's offset in the flattened vector.
	Off int
	// Len is the tensor's element count.
	Len int
}

// SegmentsOf computes the flattened-vector segment boundaries of a parameter
// list.
func SegmentsOf(ps []Param) []Segment {
	segs := make([]Segment, 0, len(ps))
	off := 0
	for _, p := range ps {
		segs = append(segs, Segment{Name: p.Name, Off: off, Len: len(p.W)})
		off += len(p.W)
	}
	return segs
}

// ParamSegments returns the per-tensor segment boundaries of the network's
// flattened parameter vector, in layer order.
func (n *Network) ParamSegments() []Segment { return SegmentsOf(n.Params()) }

// Bucket is one contiguous partition of the flattened parameter vector,
// covering whole segments only (a tensor is never split across buckets).
type Bucket struct {
	// Off and Len delimit the bucket's slice of the flattened vector.
	Off, Len int
	// Segments are the tensors the bucket covers, in layer order.
	Segments []Segment
}

// BucketPlan partitions an n-element flattened parameter vector into
// contiguous buckets at layer granularity. Buckets are in layer order and
// tile [0, N) exactly.
type BucketPlan struct {
	// N is the total parameter count the plan covers.
	N int
	// Buckets are the partitions, in flattened-vector order.
	Buckets []Bucket
}

// NumBuckets returns the bucket count (at least 1 for a non-empty model).
func (p BucketPlan) NumBuckets() int { return len(p.Buckets) }

// PlanBuckets packs segments greedily into buckets of at most bucketBytes
// bytes (float32 elements, 4 bytes each), in layer order. A segment larger
// than the budget gets a bucket of its own — tensors are never split, so a
// bucket may exceed the budget when a single layer does. bucketBytes <= 0
// requests a single bucket covering the whole vector (the synchronous
// whole-model path). Zero-length segments attach to the current bucket and
// never open a new one.
func PlanBuckets(segs []Segment, bucketBytes int) BucketPlan {
	return PlanBucketsSized(segs, []int{bucketBytes})
}

// segTotal verifies that segments tile [0, n) contiguously and returns n.
func segTotal(segs []Segment) int {
	n := 0
	for i, s := range segs {
		if s.Off != n {
			panic(fmt.Sprintf("nn: segment %d (%s) offset %d, want %d — segments must tile the vector",
				i, s.Name, s.Off, n))
		}
		n += s.Len
	}
	return n
}

// PlanBucketsSized is the variable-size generalization of PlanBuckets:
// bucket i is packed against budgetsBytes[i], with the last entry repeating
// for every later bucket (so a one-element slice reproduces PlanBuckets
// exactly). A non-positive budget makes that bucket unbounded — it absorbs
// every remaining segment. The planner uses this to emit schedules whose
// bucket sizes vary along the vector (e.g. a dense, finely-split tail whose
// exposed synchronization is cheap, behind large amortizing buckets).
func PlanBucketsSized(segs []Segment, budgetsBytes []int) BucketPlan {
	n := segTotal(segs)
	plan := BucketPlan{N: n}
	if len(segs) == 0 {
		return plan
	}
	if len(budgetsBytes) == 0 {
		budgetsBytes = []int{0}
	}
	budget := func(bucket int) int { // elements allowed in this bucket
		bb := budgetsBytes[len(budgetsBytes)-1]
		if bucket < len(budgetsBytes) {
			bb = budgetsBytes[bucket]
		}
		if bb <= 0 {
			return n // unbounded
		}
		return bb / 4
	}
	cur := Bucket{Off: 0}
	for _, s := range segs {
		if cur.Len > 0 && s.Len > 0 && cur.Len+s.Len > budget(len(plan.Buckets)) {
			plan.Buckets = append(plan.Buckets, cur)
			cur = Bucket{Off: s.Off}
		}
		cur.Segments = append(cur.Segments, s)
		cur.Len += s.Len
	}
	plan.Buckets = append(plan.Buckets, cur)
	return plan
}

// PlanFromBounds reconstructs the bucket plan a set of cumulative offsets
// describes — the inverse of BucketPlan.Bounds, used when a pre-planned
// schedule (whose boundaries were chosen against a priced fabric) is handed
// to a worker that only knows its own segment list. Bounds must start at 0,
// be strictly increasing, end at the segments' total length, and fall on
// segment boundaries (tensors are never split). Zero-length segments attach
// to the bucket preceding them, matching PlanBuckets, so
// PlanFromBounds(segs, PlanBuckets(segs, b).Bounds()) reproduces the
// original plan exactly.
func PlanFromBounds(segs []Segment, bounds []int) (BucketPlan, error) {
	n := segTotal(segs)
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return BucketPlan{}, fmt.Errorf("nn: bounds %v must run from 0 to the %d-element vector", bounds, n)
	}
	k := len(bounds) - 1
	plan := BucketPlan{N: n, Buckets: make([]Bucket, k)}
	for b := 0; b < k; b++ {
		if bounds[b+1] <= bounds[b] {
			return BucketPlan{}, fmt.Errorf("nn: bounds %v must be strictly increasing", bounds)
		}
		plan.Buckets[b] = Bucket{Off: bounds[b], Len: bounds[b+1] - bounds[b]}
	}
	bi := 0
	for _, s := range segs {
		for s.Len > 0 && s.Off >= bounds[bi+1] {
			bi++
		}
		if s.Len > 0 && s.Off+s.Len > bounds[bi+1] {
			return BucketPlan{}, fmt.Errorf("nn: bound %d splits segment %s [%d,%d) — bounds must fall on segment boundaries",
				bounds[bi+1], s.Name, s.Off, s.Off+s.Len)
		}
		plan.Buckets[bi].Segments = append(plan.Buckets[bi].Segments, s)
	}
	return plan, nil
}

// Bounds returns the len(Buckets)+1 cumulative offsets delimiting the
// buckets: Bounds()[i] is bucket i's Off and Bounds()[last] is N.
func (p BucketPlan) Bounds() []int {
	b := make([]int, len(p.Buckets)+1)
	for i, bk := range p.Buckets {
		b[i] = bk.Off
	}
	b[len(p.Buckets)] = p.N
	return b
}
