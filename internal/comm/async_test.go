package comm

import (
	"fmt"
	"testing"
)

// postedOp is the tests' Op: one collective on the context communicator Post
// assigned it to — an Allgather of v into out when out is set, otherwise an
// allreduce of v (the mean when mean is set).
type postedOp struct {
	v, out []float32
	mean   bool
	algo   AllreduceAlgorithm
}

func (o *postedOp) RunOp(cc *Communicator) error {
	switch {
	case o.out != nil:
		return cc.Allgather(o.v, o.out)
	case o.mean:
		return cc.AllreduceMean(o.v, o.algo)
	}
	return cc.AllreduceSum(o.v, o.algo)
}

// TestIAllreduceMeanMatchesBlocking posts several nonblocking allreduces per
// rank and checks the results are bitwise identical to the blocking path.
func TestIAllreduceMeanMatchesBlocking(t *testing.T) {
	const p, nBufs, n = 4, 6, 500
	// Blocking reference.
	want := make([][]float32, nBufs)
	err := RunGroup(p, func(c *Communicator) error {
		for b := 0; b < nBufs; b++ {
			v := testVec(c.Rank(), b, n)
			if err := c.AllreduceMean(v, AlgoAuto); err != nil {
				return err
			}
			if c.Rank() == 0 {
				want[b] = v
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nonblocking: post all, then wait all.
	err = RunGroup(p, func(c *Communicator) error {
		bufs := make([][]float32, nBufs)
		reqs := make([]Request, nBufs)
		for b := 0; b < nBufs; b++ {
			bufs[b] = testVec(c.Rank(), b, n)
			reqs[b] = c.Post(&postedOp{v: bufs[b], mean: true})
		}
		if err := WaitAll(reqs); err != nil {
			return err
		}
		for b := 0; b < nBufs; b++ {
			for i, x := range bufs[b] {
				if x != want[b][i] {
					return fmt.Errorf("rank %d buf %d elem %d: %v != %v",
						c.Rank(), b, i, x, want[b][i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func testVec(rank, buf, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rank*1000+buf*100+i%97) * 0.001
	}
	return v
}

func TestIAllgather(t *testing.T) {
	const p, n = 3, 8
	err := RunGroup(p, func(c *Communicator) error {
		in := make([]float32, n)
		for i := range in {
			in[i] = float32(c.Rank()*100 + i)
		}
		out := make([]float32, n*p)
		// Interleave with a second operation to exercise FIFO ordering.
		sum := []float32{float32(c.Rank())}
		r1 := c.Post(&postedOp{v: in, out: out})
		r2 := c.Post(&postedOp{v: sum})
		if err := r1.Wait(); err != nil {
			return err
		}
		if err := r2.Wait(); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if out[r*n+i] != float32(r*100+i) {
					return fmt.Errorf("rank %d: out[%d][%d] = %v", c.Rank(), r, i, out[r*n+i])
				}
			}
		}
		if want := float32(p * (p - 1) / 2); sum[0] != want {
			return fmt.Errorf("rank %d: sum %v want %v", c.Rank(), sum[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitIdempotent checks that Wait can be called repeatedly.
func TestWaitIdempotent(t *testing.T) {
	err := RunGroup(2, func(c *Communicator) error {
		v := []float32{1, 2, 3}
		req := c.Post(&postedOp{v: v, mean: true})
		for i := 0; i < 3; i++ {
			if err := req.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsyncErrorPropagates checks a failing posted operation surfaces its
// error through Wait on a shut-down fabric.
func TestAsyncErrorPropagates(t *testing.T) {
	f := NewInprocFabric(2)
	cs := f.Communicators()
	f.Shutdown()
	req := cs[0].Post(&postedOp{v: make([]float32, 16), mean: true})
	if err := req.Wait(); err == nil {
		t.Fatal("expected error on closed fabric")
	}
}

// TestAsyncWorkerParks posts, waits, and posts again: the progress worker
// must restart cleanly after draining its queue.
func TestAsyncWorkerParks(t *testing.T) {
	err := RunGroup(2, func(c *Communicator) error {
		for round := 0; round < 3; round++ {
			v := []float32{float32(c.Rank() + round)}
			if err := c.Post(&postedOp{v: v}).Wait(); err != nil {
				return err
			}
			if want := float32(1 + 2*round); v[0] != want {
				return fmt.Errorf("round %d: %v want %v", round, v[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
