package nn

import (
	"testing"

	"a2sgd/internal/tensor"
)

func segsFromLens(lens ...int) []Segment {
	var segs []Segment
	off := 0
	for i, l := range lens {
		segs = append(segs, Segment{Name: string(rune('a' + i)), Off: off, Len: l})
		off += l
	}
	return segs
}

func checkTiling(t *testing.T, p BucketPlan) {
	t.Helper()
	off := 0
	for i, b := range p.Buckets {
		if b.Off != off {
			t.Fatalf("bucket %d off %d, want %d", i, b.Off, off)
		}
		segLen := 0
		for _, s := range b.Segments {
			segLen += s.Len
		}
		if segLen != b.Len {
			t.Fatalf("bucket %d len %d != segment sum %d", i, b.Len, segLen)
		}
		off += b.Len
	}
	if off != p.N {
		t.Fatalf("buckets cover %d, want %d", off, p.N)
	}
	bounds := p.Bounds()
	if len(bounds) != len(p.Buckets)+1 || bounds[len(bounds)-1] != p.N {
		t.Fatalf("bad bounds %v", bounds)
	}
}

func TestPlanBucketsSingleBucketWhenBudgetZero(t *testing.T) {
	p := PlanBuckets(segsFromLens(10, 20, 30), 0)
	checkTiling(t, p)
	if p.NumBuckets() != 1 || p.Buckets[0].Len != 60 {
		t.Fatalf("want one 60-element bucket, got %+v", p.Buckets)
	}
}

func TestPlanBucketsBudgetLargerThanModel(t *testing.T) {
	// A bucket budget larger than the whole model yields a single bucket.
	p := PlanBuckets(segsFromLens(10, 20, 30), 1<<30)
	checkTiling(t, p)
	if p.NumBuckets() != 1 {
		t.Fatalf("want 1 bucket, got %d", p.NumBuckets())
	}
}

func TestPlanBucketsLayerGranularity(t *testing.T) {
	// 40-byte budget = 10 elements: segments of 4+4 fit one bucket; the
	// 8-element segment opens its own.
	p := PlanBuckets(segsFromLens(4, 4, 8, 2), 40)
	checkTiling(t, p)
	if p.NumBuckets() != 2 {
		t.Fatalf("want 2 buckets, got %+v", p.Buckets)
	}
	if p.Buckets[0].Len != 8 || p.Buckets[1].Len != 10 {
		t.Fatalf("bucket lens %d/%d, want 8/10", p.Buckets[0].Len, p.Buckets[1].Len)
	}
}

func TestPlanBucketsOversizedSegmentGetsOwnBucket(t *testing.T) {
	// A tensor larger than the budget must not be split: it gets a bucket
	// exceeding the budget.
	p := PlanBuckets(segsFromLens(2, 100, 2), 16)
	checkTiling(t, p)
	if p.NumBuckets() != 3 {
		t.Fatalf("want 3 buckets, got %+v", p.Buckets)
	}
	if p.Buckets[1].Len != 100 {
		t.Fatalf("oversized bucket len %d, want 100", p.Buckets[1].Len)
	}
}

func TestPlanBucketsOneParamLayers(t *testing.T) {
	// Many 1-parameter layers (biases, norm scales) pack densely.
	lens := make([]int, 17)
	for i := range lens {
		lens[i] = 1
	}
	p := PlanBuckets(segsFromLens(lens...), 16) // 4 elements per bucket
	checkTiling(t, p)
	if p.NumBuckets() != 5 {
		t.Fatalf("want 5 buckets (4+4+4+4+1), got %d", p.NumBuckets())
	}
}

func TestPlanBucketsZeroLengthSegments(t *testing.T) {
	// Zero-length segments (parameterless layers) attach to the current
	// bucket and never open a new one — including a zero-length tail.
	p := PlanBuckets(segsFromLens(4, 0, 4, 0, 0), 32)
	checkTiling(t, p)
	if p.NumBuckets() != 1 {
		t.Fatalf("want 1 bucket, got %+v", p.Buckets)
	}
	if got := len(p.Buckets[0].Segments); got != 5 {
		t.Fatalf("bucket carries %d segments, want 5", got)
	}
}

func TestPlanBucketsEmptyModel(t *testing.T) {
	p := PlanBuckets(nil, 1024)
	if p.N != 0 || p.NumBuckets() != 0 {
		t.Fatalf("empty plan %+v", p)
	}
	if b := p.Bounds(); len(b) != 1 || b[0] != 0 {
		t.Fatalf("empty bounds %v", b)
	}
}

func TestParamSegmentsMatchGatherLayout(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork(
		NewLinear(rng, 6, 5), NewReLU(),
		NewLinear(rng, 5, 3),
	)
	segs := net.ParamSegments()
	n := net.NumParams()
	total := 0
	for i, s := range segs {
		if s.Off != total {
			t.Fatalf("segment %d off %d, want %d", i, s.Off, total)
		}
		total += s.Len
	}
	if total != n {
		t.Fatalf("segments cover %d, want %d", total, n)
	}
}

func TestPlanBucketsSizedVariableBudgets(t *testing.T) {
	// Per-bucket budgets: bucket 0 gets 16 bytes (4 elems), later buckets
	// repeat the last entry (8 bytes = 2 elems).
	p := PlanBucketsSized(segsFromLens(4, 2, 2, 2), []int{16, 8})
	checkTiling(t, p)
	if p.NumBuckets() != 4 {
		t.Fatalf("want 4 buckets, got %+v", p.Buckets)
	}
	for i, want := range []int{4, 2, 2, 2} {
		if p.Buckets[i].Len != want {
			t.Fatalf("bucket lens %+v", p.Buckets)
		}
	}
	// A wider head budget packs the first two segments together.
	p = PlanBucketsSized(segsFromLens(4, 2, 2, 2), []int{24, 8})
	checkTiling(t, p)
	if p.NumBuckets() != 3 || p.Buckets[0].Len != 6 {
		t.Fatalf("want 3 buckets with a 6-elem head, got %+v", p.Buckets)
	}
}

func TestPlanBucketsSizedMatchesPlanBuckets(t *testing.T) {
	segs := segsFromLens(10, 0, 6, 7, 1, 30, 2)
	for _, bb := range []int{0, -1, 8, 24, 40, 1 << 20} {
		a, b := PlanBuckets(segs, bb), PlanBucketsSized(segs, []int{bb})
		if len(a.Buckets) != len(b.Buckets) {
			t.Fatalf("budget %d: %d vs %d buckets", bb, len(a.Buckets), len(b.Buckets))
		}
	}
	// An unbounded later budget absorbs the rest.
	p := PlanBucketsSized(segs, []int{24, 0})
	checkTiling(t, p)
	if p.NumBuckets() != 2 {
		t.Fatalf("want 2 buckets, got %+v", p.Buckets)
	}
}

func TestPlanFromBoundsRoundTrip(t *testing.T) {
	segs := segsFromLens(4, 0, 4, 3, 0, 9, 1, 0)
	for _, bb := range []int{0, 16, 28, 1 << 20} {
		want := PlanBuckets(segs, bb)
		got, err := PlanFromBounds(segs, want.Bounds())
		if err != nil {
			t.Fatalf("budget %d: %v", bb, err)
		}
		if len(got.Buckets) != len(want.Buckets) || got.N != want.N {
			t.Fatalf("budget %d: plan %+v, want %+v", bb, got, want)
		}
		for i := range want.Buckets {
			w, g := want.Buckets[i], got.Buckets[i]
			if w.Off != g.Off || w.Len != g.Len || len(w.Segments) != len(g.Segments) {
				t.Fatalf("budget %d bucket %d: %+v vs %+v", bb, i, g, w)
			}
			for j := range w.Segments {
				if w.Segments[j] != g.Segments[j] {
					t.Fatalf("budget %d bucket %d segment %d differs", bb, i, j)
				}
			}
		}
	}
}

func TestPlanFromBoundsRejectsBadBounds(t *testing.T) {
	segs := segsFromLens(4, 4, 4)
	for _, bounds := range [][]int{
		nil,           // empty
		{0},           // too short
		{0, 4, 4, 12}, // not strictly increasing
		{0, 6, 12},    // splits the middle segment
		{4, 8, 12},    // does not start at 0
		{0, 4, 8},     // does not reach n
	} {
		if _, err := PlanFromBounds(segs, bounds); err == nil {
			t.Errorf("bounds %v: expected error", bounds)
		}
	}
	// The single whole-vector bucket is valid.
	if _, err := PlanFromBounds(segs, []int{0, 12}); err != nil {
		t.Errorf("whole-vector bounds: %v", err)
	}
}
