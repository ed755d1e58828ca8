package comm

import (
	"fmt"
	"sync"
	"testing"
)

// TestSetConcurrencyValidation pins the range checks.
func TestSetConcurrencyValidation(t *testing.T) {
	f := NewInprocFabric(1)
	defer f.Shutdown()
	c := f.Communicators()[0]
	if err := c.SetConcurrency(0); err == nil {
		t.Error("SetConcurrency(0) must fail")
	}
	if err := c.SetConcurrency(MaxConcurrency + 1); err == nil {
		t.Errorf("SetConcurrency(%d) must fail", MaxConcurrency+1)
	}
	if c.Concurrency() != 1 {
		t.Errorf("failed SetConcurrency mutated the mode: %d", c.Concurrency())
	}
	if err := c.SetConcurrency(4); err != nil {
		t.Fatal(err)
	}
	if c.Concurrency() != 4 {
		t.Errorf("Concurrency() = %d, want 4", c.Concurrency())
	}
}

// TestConcurrentCollectivesMatchDeterministic posts a batch of nonblocking
// collectives under every concurrency level and checks results are bitwise
// identical to the blocking reference: operations land in disjoint tag
// blocks, so the wire interleaving cannot cross wires or change operands.
func TestConcurrentCollectivesMatchDeterministic(t *testing.T) {
	const p, nBufs, n = 4, 8, 300
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
	for _, conc := range []int{1, 2, 4, MaxConcurrency} {
		err := RunGroup(p, func(c *Communicator) error {
			if err := c.SetConcurrency(conc); err != nil {
				return err
			}
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
						return fmt.Errorf("conc %d rank %d buf %d elem %d: %v != %v",
							conc, c.Rank(), b, i, x, want[b][i])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPostTypedOps mixes typed custom operations (allgathers and allreduces
// of different lengths) under concurrency 4: every rank posts the identical
// sequence, so the round-robin context assignment agrees across ranks and
// the interleaved collectives must all complete correctly.
func TestPostTypedOps(t *testing.T) {
	const p, rounds = 3, 5
	err := RunGroup(p, func(c *Communicator) error {
		if err := c.SetConcurrency(4); err != nil {
			return err
		}
		ops := make([]postedOp, 2*rounds)
		reqs := make([]Request, 0, 2*rounds)
		for round := 0; round < rounds; round++ {
			sum := []float32{float32(c.Rank() + round)}
			in := make([]float32, 4+round)
			for i := range in {
				in[i] = float32(c.Rank()*100 + i)
			}
			out := make([]float32, len(in)*p)
			ops[2*round] = postedOp{v: sum}
			ops[2*round+1] = postedOp{v: in, out: out}
			reqs = append(reqs, c.Post(&ops[2*round]), c.Post(&ops[2*round+1]))
		}
		if err := WaitAll(reqs); err != nil {
			return err
		}
		for round := 0; round < rounds; round++ {
			wantSum := float32(p*(p-1)/2 + p*round)
			if got := ops[2*round].v[0]; got != wantSum {
				return fmt.Errorf("rank %d round %d: sum %v want %v", c.Rank(), round, got, wantSum)
			}
			n := 4 + round
			out := ops[2*round+1].out
			for r := 0; r < p; r++ {
				for i := 0; i < n; i++ {
					if out[r*n+i] != float32(r*100+i) {
						return fmt.Errorf("rank %d round %d: out[%d][%d] = %v", c.Rank(), round, r, i, out[r*n+i])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// routedOp records, per context communicator, the order its posts ran in.
type routedOp struct {
	i   int
	mu  *sync.Mutex
	ran map[*Communicator][]int
}

func (o *routedOp) RunOp(cc *Communicator) error {
	o.mu.Lock()
	o.ran[cc] = append(o.ran[cc], o.i)
	o.mu.Unlock()
	return nil
}

// TestPostRoundRobinFIFOPerContext: the k-th posted operation runs on
// context k mod n — the assignment depends on the posting sequence alone, so
// every rank routes it to the same tag block — and each context runs its
// operations in posting order.
func TestPostRoundRobinFIFOPerContext(t *testing.T) {
	const conc, posts = 3, 9
	err := RunGroup(2, func(c *Communicator) error {
		if err := c.SetConcurrency(conc); err != nil {
			return err
		}
		var mu sync.Mutex
		ran := map[*Communicator][]int{}
		reqs := make([]Request, 0, posts)
		for i := 0; i < posts; i++ {
			reqs = append(reqs, c.Post(&routedOp{i: i, mu: &mu, ran: ran}))
		}
		if err := WaitAll(reqs); err != nil {
			return err
		}
		for k := 0; k < conc; k++ {
			got := ran[c.ctxComm(k)]
			for j, i := range got {
				if i != k+j*conc {
					return fmt.Errorf("context %d ran posts %v, want %d, %d, %d in order", k, got, k, k+conc, k+2*conc)
				}
			}
			if len(got) != posts/conc {
				return fmt.Errorf("context %d ran %d posts, want %d", k, len(got), posts/conc)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetConcurrencyResetsAcrossPhases: lowering the concurrency back to 1
// restores the deterministic mode for subsequent phases.
func TestSetConcurrencyResetsAcrossPhases(t *testing.T) {
	err := RunGroup(2, func(c *Communicator) error {
		for _, conc := range []int{4, 1, 2} {
			if err := c.SetConcurrency(conc); err != nil {
				return err
			}
			v := []float32{float32(c.Rank() + 1)}
			if err := c.Post(&postedOp{v: v}).Wait(); err != nil {
				return err
			}
			if v[0] != 3 {
				return fmt.Errorf("conc %d: sum %v want 3", conc, v[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
