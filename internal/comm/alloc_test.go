package comm

import (
	"runtime/debug"
	"testing"

	"a2sgd/internal/health"
)

// allreduceAllocs measures rank 0's steady-state allocations per
// AllreduceMean on a warm two-rank inproc fabric. Rank 1 mirrors every
// collective from its own goroutine until the fabric shuts down; its
// allocations land in the same global counter, so a nonzero result on either
// side fails. GC is paused so a collection can't empty the transit-buffer
// pool mid-measurement.
func allreduceAllocs(t *testing.T, algo AllreduceAlgorithm, n int) float64 {
	t.Helper()
	f := NewInprocFabric(2)
	defer f.Shutdown()
	cs := f.Communicators()
	v0 := make([]float32, n)
	v1 := make([]float32, n)
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		for {
			if err := cs[1].AllreduceMean(v1, algo); err != nil {
				return // ErrFabricClosed at teardown
			}
		}
	}()
	// Warm-up: grow the communicator scratch and the fabric's transit pool.
	for i := 0; i < 3; i++ {
		if err := cs[0].AllreduceMean(v0, algo); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, func() {
		if err := cs[0].AllreduceMean(v0, algo); err != nil {
			t.Fatal(err)
		}
	})
	f.Shutdown()
	<-peerDone
	return allocs
}

// TestAllreduceMeanZeroAllocSteadyState pins the collective half of the
// zero-allocation contract: on the inproc fabric a warm AllreduceMean —
// ring or recursive doubling, latency- or bandwidth-sized — never touches
// the allocator (communicator-owned reduction scratch, pooled transit
// buffers, no per-step goroutine captures).
// stepOp is the pooled exchange op of the overlap-step alloc test.
type stepOp struct {
	v []float32
}

func (o *stepOp) RunOp(cc *Communicator) error { return cc.AllreduceMean(o.v, AlgoRing) }

// overlapStepAllocs measures rank 0's steady-state allocations for one full
// overlap step — post every bucket's typed exchange through the pooled
// request queue, then WaitAll — on a warm two-rank fabric at the given
// concurrency.
func overlapStepAllocs(t *testing.T, concurrency, buckets, n int, setup func(c *Communicator, rank int)) float64 {
	t.Helper()
	f := NewInprocFabric(2)
	defer f.Shutdown()
	cs := f.Communicators()
	step := func(c *Communicator, ops []stepOp, reqs []Request) ([]Request, error) {
		reqs = reqs[:0]
		for b := range ops {
			reqs = append(reqs, c.Post(&ops[b]))
		}
		return reqs, WaitAll(reqs)
	}
	newState := func(rank int) []stepOp {
		ops := make([]stepOp, buckets)
		for b := range ops {
			ops[b] = stepOp{v: make([]float32, n)}
		}
		return ops
	}
	for rank, c := range cs {
		if err := c.SetConcurrency(concurrency); err != nil {
			t.Fatal(err)
		}
		if setup != nil {
			setup(c, rank)
		}
	}
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		ops := newState(1)
		reqs := make([]Request, 0, buckets)
		for {
			var err error
			if reqs, err = step(cs[1], ops, reqs); err != nil {
				return // ErrFabricClosed at teardown
			}
		}
	}()
	ops := newState(0)
	reqs := make([]Request, 0, buckets)
	// Warm-up: grow the request freelist, context queues, communicator
	// scratch and the fabric's transit pool.
	for i := 0; i < 5; i++ {
		var err error
		if reqs, err = step(cs[0], ops, reqs); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if reqs, err = step(cs[0], ops, reqs); err != nil {
			t.Fatal(err)
		}
	})
	f.Shutdown()
	<-peerDone
	return allocs
}

// TestOverlapStepZeroAllocSteadyState pins the typed exchange queue's half
// of the zero-allocation contract: a warm full overlap step — every bucket
// posted as a pooled typed operation, then WaitAll — never touches the
// allocator, in the deterministic mode and with concurrent contexts alike.
// (The closure-queue path this replaced cost ~5 allocations per posted
// bucket: the closure capture, the boxed request, and the queue churn.)
func TestOverlapStepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	for _, tc := range []struct {
		name        string
		concurrency int
	}{
		{"deterministic", 1},
		{"concurrent-4", 4},
	} {
		if a := overlapStepAllocs(t, tc.concurrency, 8, 1<<12, nil); a != 0 {
			t.Errorf("%s: %.2f allocs per steady-state overlap step, want 0", tc.name, a)
		}
	}
}

// TestOverlapStepZeroAllocWithObservers pins the health-beacon half of the
// contract: installing the send observer (a real health.Recorder method
// value, as cluster.Train does) must not add a single allocation to the
// steady-state overlap step — the recorder writes into preallocated rings
// and the send path's time stamps live on the stack.
func TestOverlapStepZeroAllocWithObservers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	mon := health.NewMonitor(2, health.Options{})
	setup := func(c *Communicator, rank int) {
		c.SetSendObserver(mon.Recorder(rank).ObserveSend)
	}
	for _, tc := range []struct {
		name        string
		concurrency int
	}{
		{"deterministic", 1},
		{"concurrent-4", 4},
	} {
		if a := overlapStepAllocs(t, tc.concurrency, 8, 1<<12, setup); a != 0 {
			t.Errorf("%s: %.2f allocs per steady-state overlap step with observers, want 0", tc.name, a)
		}
	}
}

func TestAllreduceMeanZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	for _, tc := range []struct {
		name string
		algo AllreduceAlgorithm
		n    int
	}{
		{"ring-64k", AlgoRing, 1 << 16},
		{"recdbl-64k", AlgoRecursiveDoubling, 1 << 16},
		{"recdbl-2", AlgoRecursiveDoubling, 2}, // a2sgd's two-scalar exchange
	} {
		if a := allreduceAllocs(t, tc.algo, tc.n); a != 0 {
			t.Errorf("%s: %.2f allocs per steady-state AllreduceMean, want 0", tc.name, a)
		}
	}
}
