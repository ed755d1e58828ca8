package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// TestEncodeZeroAllocSteadyState: A2SGD's Encode — the two-level means —
// runs allocation-free on a warm instance, with the two-scalar payload
// backed by instance scratch (the Payload contract in compress.go).
func TestEncodeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 18
	g := make([]float32, n)
	tensor.NewRNG(17).NormVec(g, 0, 0.05)
	a := New(n)
	a.Encode(g)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(10, func() { a.Encode(g) }); allocs != 0 {
		t.Errorf("%.1f allocs per steady-state Encode, want 0", allocs)
	}
}

// allocatedBytes reports how many heap bytes one call of f allocates on the
// calling goroutine: the smallest process-wide TotalAlloc delta over several
// calls, taken with the scheduler narrowed to one thread the way
// testing.AllocsPerRun narrows it. Whatever else the process allocates in a
// window can only add to that window's delta, so the minimum is f's own cost
// and does not need a quiet process.
func allocatedBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestInstanceHoldsNoGradientSizedMemory: building an instance for a 1 Mi
// gradient (4 MiB) and taking it through a whole EncodeView + ExchangeView
// allocates less than 4 KiB in total — the error vector is never
// materialized, so nothing n-sized can hide on the instance.
func TestInstanceHoldsNoGradientSizedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 20
	g := make([]float32, n)
	tensor.NewRNG(18).NormVec(g, 0, 0.05)
	v := tensor.NewVecView(g[:n/3], g[n/3:])
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		var err error
		sync := func() {
			a := New(n)
			if e := a.ExchangeView(a.EncodeView(v), v, c); e != nil {
				err = e
			}
		}
		sync() // warms the communicator's own scratch
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if grew := allocatedBytes(5, sync); grew >= 4<<10 {
			t.Errorf("New + EncodeView + ExchangeView on %d elements allocated %d B, want < 4 KiB", n, grew)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
