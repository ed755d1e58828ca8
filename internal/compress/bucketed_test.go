package compress

import (
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// syncBuckets drives a Bucketed the way its callers do: bucket b's sub-view
// of v (any segmentation of the full gradient; a one-segment view is the flat
// code path) through EncodeBucketView for every bucket in order, then every
// ExchangeBucketView in order, reconstructing into v. It returns the live
// per-bucket payloads.
func syncBuckets(bk *Bucketed, v *tensor.VecView, c *comm.Communicator) ([]Payload, error) {
	bounds := bk.Bounds()
	views := make([]tensor.VecView, bk.NumBuckets())
	payloads := make([]Payload, bk.NumBuckets())
	for b := range views {
		payloads[b] = bk.EncodeBucketView(b, v.SliceView(bounds[b], bounds[b+1], &views[b]))
	}
	for b := range views {
		if err := bk.ExchangeBucketView(b, payloads[b], &views[b], c); err != nil {
			return nil, err
		}
	}
	return payloads, nil
}

// recDoublingDense is dense pinned to recursive-doubling allreduce, whose
// per-element reduction order does not depend on the vector length (ring's
// does — it cuts the vector into P segments). Dense's payload is the
// gradient itself or its contiguous staging, so reducing the payload and
// copying it back is Dense's own exchange on the other collective.
type recDoublingDense struct{ *Dense }

func (d recDoublingDense) Exchange(_ Payload, g []float32, c *comm.Communicator) error {
	return c.AllreduceMean(g, comm.AlgoRecursiveDoubling)
}

func (d recDoublingDense) ExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator) error {
	if err := c.AllreduceMean(p.Data, comm.AlgoRecursiveDoubling); err != nil {
		return err
	}
	v.CopyFrom(p.Data)
	return nil
}

// TestBucketedDenseMatchesWholeVector: per-bucket dense allreduce with
// recursive doubling is bitwise identical to the whole-vector allreduce
// (every element sees the same partner-addition order regardless of vector
// length), so the bucketed wrapper must reproduce the dense baseline exactly.
func TestBucketedDenseMatchesWholeVector(t *testing.T) {
	const p, n = 4, 1000
	bounds := []int{0, 130, 500, 730, n}
	mk := func(rank int) []float32 {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32((rank+1)*(i%89)) * 0.01
		}
		return g
	}
	want := make([]float32, n)
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		g := mk(c.Rank())
		d := recDoublingDense{NewDense(Options{N: n})}
		pl := d.Encode(g)
		if err := d.Exchange(pl, g, c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			copy(want, g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunGroup(p, func(c *comm.Communicator) error {
		g := mk(c.Rank())
		bk := NewBucketed(bounds, func(b, bn int) Algorithm {
			return recDoublingDense{NewDense(Options{N: bn})}
		})
		if _, err := syncBuckets(bk, tensor.NewVecView(g), c); err != nil {
			return err
		}
		for i := range g {
			if g[i] != want[i] {
				t.Errorf("rank %d elem %d: %v != %v", c.Rank(), i, g[i], want[i])
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBucketedAccountingAggregates(t *testing.T) {
	bounds := []int{0, 10, 30, 100}
	bk := NewBucketed(bounds, func(b, bn int) Algorithm {
		return NewQSGD(Options{N: bn, QuantLevels: 4, Seed: uint64(b + 1)})
	})
	if bk.NumBuckets() != 3 {
		t.Fatalf("buckets %d", bk.NumBuckets())
	}
	per := bk.PayloadBytesPerBucket()
	var sum int64
	for _, b := range per {
		sum += b
	}
	if got := bk.PayloadBytes(100); got != sum {
		t.Fatalf("PayloadBytes %d != per-bucket sum %d", got, sum)
	}
	g := make([]float32, 100)
	for i := range g {
		g[i] = float32(i%7) - 3
	}
	// Each bucket is a full instance sized to its span: its payload is what
	// a standalone instance built the same way emits for that slice.
	var bv tensor.VecView
	for b := 0; b < 3; b++ {
		gb := g[bounds[b]:bounds[b+1]]
		want := NewQSGD(Options{N: len(gb), QuantLevels: 4, Seed: uint64(b + 1)}).Encode(gb)
		got := bk.EncodeBucketView(b, bv.Reset1(gb))
		if got.Bits != want.Bits || len(got.Data) != len(want.Data) {
			t.Fatalf("bucket %d: %d bits / %d words, standalone %d / %d",
				b, got.Bits, len(got.Data), want.Bits, len(want.Data))
		}
	}
	if name := bk.Name(); name != "qsgd+bucketed[3]" {
		t.Fatalf("name %q", name)
	}
}

func TestBucketedSingleBucketKeepsName(t *testing.T) {
	bk := NewBucketed([]int{0, 50}, func(b, bn int) Algorithm {
		return NewDense(Options{N: bn})
	})
	if bk.Name() != "dense" {
		t.Fatalf("single-bucket name %q, want dense", bk.Name())
	}
}

// TestBucketedSparsifierRoundTrip: per-bucket Top-K with error feedback must
// synchronize without error and leave every rank with identical gradients.
func TestBucketedSparsifierRoundTrip(t *testing.T) {
	const p, n = 3, 400
	bounds := []int{0, 150, 280, n}
	results := make([][]float32, p)
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32((c.Rank()+1)*(i%31)) * 0.02
		}
		bk := NewBucketed(bounds, func(b, bn int) Algorithm {
			return NewTopK(Options{N: bn, Density: 0.05})
		})
		if _, err := syncBuckets(bk, tensor.NewVecView(g), c); err != nil {
			return err
		}
		results[c.Rank()] = g
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		for i := range results[0] {
			if results[0][i] != results[r][i] {
				t.Fatalf("rank %d diverged at %d: %v vs %v", r, i, results[r][i], results[0][i])
			}
		}
	}
}
