package comm

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// freeReqCount walks the communicator's request freelist.
func freeReqCount(c *Communicator) int {
	c.asyncMu.Lock()
	defer c.asyncMu.Unlock()
	n := 0
	for r := c.freeReqs; r != nil; r = r.next {
		n++
	}
	return n
}

// waitGoroutines polls until the goroutine count drops back to at most
// baseline (the runtime needs a moment to retire exiting goroutines).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", n, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWaitAllFailureLeaksNothing is the failure-path leak audit: when a peer
// dies mid-step, every posted request must still complete with an error (no
// hang), WaitAll must surface a joined *PeerError, every pooled request must
// return to the freelist, and every progress-worker goroutine must park.
func TestWaitAllFailureLeaksNothing(t *testing.T) {
	for _, concurrency := range []int{0, 4} {
		baseline := runtime.NumGoroutine()
		f := NewInprocFabric(2)
		cs := f.Communicators()
		if concurrency > 1 {
			for _, c := range cs {
				if err := c.SetConcurrency(concurrency); err != nil {
					t.Fatal(err)
				}
			}
		}
		const posts = 8
		// One healthy warm-up step on both ranks, so the freelist and queues
		// are at steady state before the failure.
		warm := make(chan error, 1)
		go func() {
			var reqs []Request
			for i := 0; i < posts; i++ {
				reqs = append(reqs, cs[1].Post(&postedOp{v: make([]float32, 32), algo: AlgoRing}))
			}
			warm <- WaitAll(reqs)
		}()
		var reqs []Request
		for i := 0; i < posts; i++ {
			reqs = append(reqs, cs[0].Post(&postedOp{v: make([]float32, 32), algo: AlgoRing}))
		}
		if err := WaitAll(reqs); err != nil {
			t.Fatal(err)
		}
		if err := <-warm; err != nil {
			t.Fatal(err)
		}
		free := freeReqCount(cs[0])

		// Kill rank 1 and post a full step from rank 0: every exchange must
		// fail fast with a typed peer error instead of blocking.
		f.Kill(1)
		reqs = reqs[:0]
		for i := 0; i < posts; i++ {
			reqs = append(reqs, cs[0].Post(&postedOp{v: make([]float32, 32), algo: AlgoRing}))
		}
		err := WaitAll(reqs)
		if err == nil {
			t.Fatal("WaitAll against a dead peer returned nil")
		}
		var pe *PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("WaitAll error is not a *PeerError chain: %v", err)
		}
		if pe.Rank != 1 {
			t.Fatalf("PeerError blames rank %d, want 1", pe.Rank)
		}

		// Every request went back to the pool — the failure path recycles
		// exactly like the success path.
		if got := freeReqCount(cs[0]); got != free {
			t.Fatalf("freelist after failed WaitAll: %d requests, want %d", got, free)
		}
		f.Shutdown()
		waitGoroutines(t, baseline)
	}
}

// TestFailedStepThenShutdownParksWorkers covers the cluster teardown order:
// a failed WaitAll, then fabric shutdown while other ranks may still be
// mid-collective. Nothing may hang and no goroutine may survive.
func TestFailedStepThenShutdownParksWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f := NewInprocFabric(3)
	cs := f.Communicators()
	// Rank 2 blocks in a collective that will never complete (rank 1 dies);
	// the shutdown below must release it.
	blocked := make(chan error, 1)
	go func() {
		blocked <- cs[2].AllreduceSum(make([]float32, 64), AlgoRing)
	}()
	time.Sleep(2 * time.Millisecond)
	f.Kill(1)
	req := cs[0].Post(&postedOp{v: make([]float32, 64), algo: AlgoRing})
	if err := req.Wait(); err == nil {
		t.Fatal("exchange against a dead peer returned nil")
	}
	f.Shutdown()
	if err := <-blocked; err == nil {
		t.Fatal("blocked rank's collective returned nil after shutdown")
	}
	waitGoroutines(t, baseline)
}

// TestRetryDoesNotAllocateOnSuccess pins the fault-path half of the
// zero-allocation contract: the bounded-retry wrappers around Transport
// Send/Recv must stay off the allocator when the transport is healthy.
func TestRetryDoesNotAllocateOnSuccess(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	f := NewInprocFabric(2)
	defer f.Shutdown()
	cs := f.Communicators()
	for _, c := range cs {
		c.SetRetry(DefaultRetry())
	}
	v0, v1 := make([]float32, 256), make([]float32, 256)
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		for {
			if err := cs[1].AllreduceMean(v1, AlgoRing); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := cs[0].AllreduceMean(v0, AlgoRing); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := cs[0].AllreduceMean(v0, AlgoRing); err != nil {
			t.Fatal(err)
		}
	})
	f.Shutdown()
	<-peerDone
	if allocs > 0 {
		t.Fatalf("retry-wrapped allreduce allocates %.1f/op on the healthy path, want 0", allocs)
	}
}
