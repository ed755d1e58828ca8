package comm

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
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

// Each SetConcurrency replaces the previous call's contexts: after 4, 1, 2,
// 4 the children are exactly the live contexts, so Traffic, SetRetry and
// SetSendObserver reach those and no dropped one, and the traffic the
// dropped contexts carried stays in Traffic's totals.
func TestSetConcurrencyReplacesContexts(t *testing.T) {
	f := NewInprocFabric(1)
	defer f.Shutdown()
	c := f.Communicators()[0]
	var dropped []*Communicator
	var carried int64
	for i, n := range []int{4, 1, 2, 4} {
		if err := c.SetConcurrency(n); err != nil {
			t.Fatal(err)
		}
		live := c.ctxComms[1:]
		if !slices.Equal(c.children, live) {
			t.Fatalf("call %d (n=%d): %d children, want the %d live contexts", i, n, len(c.children), len(live))
		}
		for _, d := range dropped {
			if slices.Contains(live, d) {
				t.Fatalf("call %d: a dropped context is live again", i)
			}
		}
		if got := c.Traffic().BytesSent; got != carried {
			t.Fatalf("call %d: Traffic %d bytes sent, want the %d carried over", i, got, carried)
		}
		// Each live context sends one byte's worth of counter; the next call
		// drops them and must keep these bytes in the totals.
		for _, ctx := range live {
			ctx.bytesSent.Add(1)
		}
		carried += int64(len(live))
		dropped = append(dropped, live...)
	}
	policy := RetryPolicy{Attempts: 7}
	var log sendLog
	c.SetRetry(policy)
	c.SetSendObserver(log.observe)
	c.ResetTraffic()
	for _, ctx := range c.ctxComms[1:] {
		if ctx.retry != policy || ctx.sendObs == nil || ctx.bytesSent.Load() != 0 {
			t.Errorf("a live context missed SetRetry, SetSendObserver or ResetTraffic")
		}
	}
	for _, d := range dropped[:len(dropped)-3] {
		if d.retry == policy || d.sendObs != nil || d.bytesSent.Load() == 0 {
			t.Errorf("a dropped context was reached by SetRetry, SetSendObserver or ResetTraffic")
		}
	}
}

// sendLog is a recording send observer: the destination of every send.
type sendLog struct {
	mu sync.Mutex
	to []int
}

func (l *sendLog) observe(to, _ int, _ float64) {
	l.mu.Lock()
	l.to = append(l.to, to)
	l.mu.Unlock()
}

// take returns the recorded destinations, sorted, and clears the log.
func (l *sendLog) take() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.to
	l.to = nil
	slices.Sort(out)
	return out
}

// TestDerivedCommunicatorsInherit: a retry policy and a send observer,
// installed before derivation and again after it, reach every Split group,
// every concurrency context (a split group's too) and each context's
// hierarchy tiers, and the observer names global ranks on all of them — the
// health ladder attributes a slow link to a worker through these labels.
func TestDerivedCommunicatorsInherit(t *testing.T) {
	const p = 4
	early := RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
	late := RetryPolicy{Attempts: 5, Backoff: 2 * time.Millisecond}
	err := RunGroup(p, func(c *Communicator) error {
		var before, after sendLog
		c.SetRetry(early)
		c.SetSendObserver(before.observe)
		// Reversed keys, so split-group labels differ from global ranks.
		g, err := c.Split(c.Rank()%2, p-c.Rank())
		if err != nil {
			return err
		}
		if err := c.SetTopology(2); err != nil {
			return err
		}
		if err := c.SetConcurrency(2); err != nil {
			return err
		}
		// A split group's context maps its labels through the group's.
		if err := g.SetConcurrency(2); err != nil {
			return err
		}
		ctx := c.ctxComm(1)
		if ctx.hier == nil {
			return fmt.Errorf("rank %d: context did not replay the topology", c.Rank())
		}
		// Every rank lists the communicators it belongs to in one order; the
		// leader tiers exist on leaders only, who all list them last.
		derived := []*Communicator{g, g.ctxComm(1), c.hier.intra, ctx, ctx.hier.intra}
		if c.hier.inter != nil {
			derived = append(derived, c.hier.inter, ctx.hier.inter)
		}
		check := func(phase string, log *sendLog, retry RetryPolicy) error {
			for i, d := range derived {
				if d.retry != retry {
					return fmt.Errorf("%s: rank %d derived %d: retry %+v, want %+v", phase, c.Rank(), i, d.retry, retry)
				}
				// The members' global ranks, by local label, from the data.
				globals := make([]float32, d.Size())
				if err := d.flatAllgather([]float32{float32(c.Rank())}, globals); err != nil {
					return err
				}
				log.take()
				var want []int
				buf := []float32{0}
				for j := 0; j < d.Size(); j++ {
					if j != d.Rank() {
						if err := d.send(j, tagBar+1<<15, buf); err != nil {
							return err
						}
						want = append(want, int(globals[j]))
					}
				}
				for j := 0; j < d.Size(); j++ {
					if j != d.Rank() {
						if err := d.recv(j, tagBar+1<<15, buf); err != nil {
							return err
						}
					}
				}
				slices.Sort(want)
				if got := log.take(); !slices.Equal(got, want) {
					return fmt.Errorf("%s: rank %d derived %d: observed sends to %v, want global ranks %v", phase, c.Rank(), i, got, want)
				}
			}
			return nil
		}
		if err := check("installed before derivation", &before, early); err != nil {
			return err
		}
		c.SetRetry(late)
		c.SetSendObserver(after.observe)
		if err := check("installed after derivation", &after, late); err != nil {
			return err
		}
		if stale := before.take(); len(stale) > 0 {
			return fmt.Errorf("rank %d: replaced observer still saw sends to %v", c.Rank(), stale)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
