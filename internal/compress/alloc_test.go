package compress

import (
	"runtime/debug"
	"testing"
)

// The zero-allocation contract (ARCHITECTURE.md "Memory discipline & hot
// path"): after a warm-up call grows the instance scratch, Encode on the
// paper's compression set never touches the allocator. GC is paused during
// the measurements so a collection can't recycle scratch mid-run and charge
// a re-grow to the steady state.

// encodeAllocs measures steady-state allocations per Encode on a warm
// instance of the named algorithm over a vgg16-scale bucket.
func encodeAllocs(t *testing.T, name string, warmups int) float64 {
	t.Helper()
	const n = 1 << 18
	o := DefaultOptions(n)
	o.Seed = 3
	alg, err := Build(&Spec{Name: name}, o)
	if err != nil {
		t.Fatal(err)
	}
	g := randGrad(17, n)
	for i := 0; i < warmups; i++ {
		alg.Encode(g)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(10, func() { alg.Encode(g) })
}

func TestEncodeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	// gaussiank's selected count varies around k step to step, so it gets a
	// few warm-ups to reach its high-water selection size; the fixed-size
	// selections are steady after one.
	for _, tc := range []struct {
		name    string
		warmups int
	}{
		{"topk", 1},
		{"gaussiank", 5},
		{"qsgd", 1},
		{"qsgd-elias", 1},
	} {
		// a2sgd self-registers from internal/core (not linked into this
		// test binary); its Encode allocation test lives in that package.
		if a := encodeAllocs(t, tc.name, tc.warmups); a != 0 {
			t.Errorf("%s: %.1f allocs per steady-state Encode, want 0", tc.name, a)
		}
	}
}

// TestDecodeZeroAllocSteadyState: QSGD's Decode recycles its word scratch.
func TestDecodeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 18
	o := DefaultOptions(n)
	o.Seed = 3
	q := NewQSGD(o)
	g := randGrad(17, n)
	p := q.Encode(g)
	stream := append([]float32(nil), p.Data...) // retained copy (payload contract)
	dst := make([]float32, n)
	q.Decode(stream, dst)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if a := testing.AllocsPerRun(10, func() { q.Decode(stream, dst) }); a != 0 {
		t.Errorf("qsgd decode: %.1f allocs per steady-state run, want 0", a)
	}
}
