package compress

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"a2sgd/internal/comm"
	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

func randGrad(seed uint64, n int) []float32 {
	rng := tensor.NewRNG(seed)
	g := make([]float32, n)
	rng.NormVec(g, 0, 0.1)
	return g
}

// runSync runs one Encode+Exchange round for p workers with per-worker
// gradients and returns each worker's synchronized result.
func runSync(t *testing.T, p int, build func(rank int) Algorithm, grads [][]float32) [][]float32 {
	t.Helper()
	out := make([][]float32, p)
	var mu sync.Mutex
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		a := build(c.Rank())
		g := append([]float32(nil), grads[c.Rank()]...)
		if _, err := Sync(a, g, c); err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = g
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func denseAverage(grads [][]float32) []float32 {
	n := len(grads[0])
	avg := make([]float32, n)
	for _, g := range grads {
		for i := range avg {
			avg[i] += g[i]
		}
	}
	for i := range avg {
		avg[i] /= float32(len(grads))
	}
	return avg
}

func TestDenseSyncEqualsAverage(t *testing.T) {
	p, n := 4, 500
	grads := make([][]float32, p)
	for r := range grads {
		grads[r] = randGrad(uint64(r+1), n)
	}
	want := denseAverage(grads)
	out := runSync(t, p, func(int) Algorithm { return NewDense(DefaultOptions(n)) }, grads)
	for r := 0; r < p; r++ {
		for i := range want {
			if math.Abs(float64(out[r][i]-want[i])) > 1e-5 {
				t.Fatalf("rank %d [%d]: %v want %v", r, i, out[r][i], want[i])
			}
		}
	}
}

func TestDenseMetadata(t *testing.T) {
	d := NewDense(DefaultOptions(100))
	if d.Name() != "dense" {
		t.Error("name")
	}
	if d.PayloadBytes(100) != 400 {
		t.Error("payload bytes")
	}
	if d.ExchangeKind() != netsim.ExchangeAllreduce {
		t.Error("kind")
	}
	p := d.Encode(make([]float32, 10))
	if p.Bits != 320 {
		t.Errorf("bits = %d", p.Bits)
	}
	d.Reset() // no-op, must not panic
}

func TestOptionsK(t *testing.T) {
	o := DefaultOptions(10000)
	if o.K() != 10 {
		t.Errorf("K = %d, want 10 (0.1%% of 10000)", o.K())
	}
	o.Density = 0
	if o.K() != 1 {
		t.Errorf("K floor = %d, want 1", o.K())
	}
	o.Density = 10
	if o.K() != o.N {
		t.Errorf("K cap = %d, want N", o.K())
	}
}

func TestOptionsValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for N<=0")
		}
	}()
	NewDense(Options{N: 0})
}

// ---- Top-K ----

// topKIndices is the standalone form of sparseScratch.topK: it returns the
// indices of the k largest |v| entries in a fresh slice.
func topKIndices(v []float32, k int) []int32 {
	var sc sparseScratch
	sc.topK(v, k)
	return sc.idx
}

func TestTopKSelectionMatchesSort(t *testing.T) {
	for _, n := range []int{1, 5, 100, 1000} {
		for _, k := range []int{1, 3, n / 2, n} {
			if k < 1 || k > n {
				continue
			}
			v := randGrad(uint64(n*k), n)
			got := topKIndices(v, k)
			if len(got) != k {
				t.Fatalf("n=%d k=%d: got %d indices", n, k, len(got))
			}
			// Reference: sort indices by |v| descending.
			ref := make([]int, n)
			for i := range ref {
				ref[i] = i
			}
			sort.Slice(ref, func(a, b int) bool {
				return math.Abs(float64(v[ref[a]])) > math.Abs(float64(v[ref[b]]))
			})
			// The selected set must have the same magnitude multiset as
			// the top k of the sorted reference (ties may swap indices).
			gotMags := make([]float64, k)
			wantMags := make([]float64, k)
			for i := 0; i < k; i++ {
				gotMags[i] = math.Abs(float64(v[got[i]]))
				wantMags[i] = math.Abs(float64(v[ref[i]]))
			}
			sort.Float64s(gotMags)
			sort.Float64s(wantMags)
			for i := range gotMags {
				if gotMags[i] != wantMags[i] {
					t.Fatalf("n=%d k=%d: magnitude multiset differs at %d: %v vs %v",
						n, k, i, gotMags[i], wantMags[i])
				}
			}
			// No duplicate indices.
			seen := map[int32]bool{}
			for _, ix := range got {
				if seen[ix] {
					t.Fatalf("duplicate index %d", ix)
				}
				seen[ix] = true
			}
		}
	}
}

// Property: top-k indices always cover the single largest element.
func TestTopKProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(200)
		k := 1 + rng.Intn(n)
		v := make([]float32, n)
		rng.NormVec(v, 0, 1)
		got := topKIndices(v, k)
		// Find argmax |v|.
		best := 0
		for i := 1; i < n; i++ {
			if math.Abs(float64(v[i])) > math.Abs(float64(v[best])) {
				best = i
			}
		}
		for _, ix := range got {
			if int(ix) == best {
				return true
			}
		}
		// Allow a tie on magnitude.
		bm := math.Abs(float64(v[best]))
		for _, ix := range got {
			if math.Abs(float64(v[ix])) == bm {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTopKErrorFeedbackAccumulates(t *testing.T) {
	// With k=1 only the largest entry ships each step; a small entry must
	// accumulate in the residual and eventually be transmitted.
	n := 4
	tk := NewTopK(Options{N: n, Density: 1.0 / float64(n)})
	if tk.K() != 1 {
		t.Fatalf("K = %d", tk.K())
	}
	g := []float32{1.0, 0.4, 0, 0}
	// Step 1: ships index 0, residual keeps 0.4 at index 1.
	p := tk.Encode(g)
	if ix := comm.Float32ToIndex(p.Data[0]); ix != 0 {
		t.Fatalf("step1 selected %d", ix)
	}
	if tk.ef.residual[1] != 0.4 {
		t.Fatalf("residual[1] = %v", tk.ef.residual[1])
	}
	// Step 2 with the same gradient: residual+g at index 1 is 0.8 < 1.0 at
	// index 0... index 0's residual is 0 so acc0 = 1.0 again. Ship 0 again,
	// residual[1] = 0.8.
	tk.Encode(g)
	if math.Abs(float64(tk.ef.residual[1])-0.8) > 1e-6 {
		t.Fatalf("residual[1] after step2 = %v", tk.ef.residual[1])
	}
	// Step 3 with zero gradient: acc = residual, index 1 (1.2? no: 0.8) is
	// now the largest since index 0 residual is 0.
	p = tk.Encode(make([]float32, n))
	if ix := comm.Float32ToIndex(p.Data[0]); ix != 1 {
		t.Fatalf("step3 selected %d, want deferred index 1", ix)
	}
	tk.Reset()
	for _, r := range tk.ef.residual {
		if r != 0 {
			t.Fatal("Reset did not clear residual")
		}
	}
}

func TestTopKSyncAveragesSelections(t *testing.T) {
	p, n := 2, 10
	// Worker 0 has a spike at 2, worker 1 at 7.
	g0 := make([]float32, n)
	g1 := make([]float32, n)
	g0[2] = 1.0
	g1[7] = -2.0
	out := runSync(t, p, func(int) Algorithm {
		return NewTopK(Options{N: n, Density: 0.1})
	}, [][]float32{g0, g1})
	for r := 0; r < p; r++ {
		for i, v := range out[r] {
			var want float32
			switch i {
			case 2:
				want = 0.5 // 1.0 from one of two workers
			case 7:
				want = -1.0
			}
			if math.Abs(float64(v-want)) > 1e-6 {
				t.Fatalf("rank %d out[%d] = %v want %v", r, i, v, want)
			}
		}
	}
}

func TestTopKGradientLengthChangePanics(t *testing.T) {
	tk := NewTopK(Options{N: 10, Density: 0.5})
	tk.Encode(make([]float32, 10))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length change")
		}
	}()
	tk.Encode(make([]float32, 11))
}

// ---- Gaussian-K ----

func TestGaussianKSelectsApproxK(t *testing.T) {
	n := 50000
	o := Options{N: n, Density: 0.01}
	gk := NewGaussianK(o)
	g := randGrad(3, n)
	p := gk.Encode(g)
	sel := len(p.Data) / 2
	k := o.K()
	if sel < k/3 || sel > k*3 {
		t.Errorf("selected %d, want within 3x of k=%d", sel, k)
	}
	if gk.Name() != "gaussiank" {
		t.Error("name")
	}
	if gk.ExchangeKind() != netsim.ExchangeAllgatherV {
		t.Error("kind")
	}
	if gk.PayloadBytes(n) != int64(4*k) {
		t.Error("payload bytes")
	}
}

func TestGaussianKSelectsLargest(t *testing.T) {
	// The entries above the threshold must include the largest-magnitude one.
	n := 10000
	gk := NewGaussianK(Options{N: n, Density: 0.001})
	g := randGrad(5, n)
	g[1234] = 50 // enormous spike
	p := gk.Encode(g)
	found := false
	for i := 0; i < len(p.Data); i += 2 {
		if comm.Float32ToIndex(p.Data[i]) == 1234 {
			found = true
		}
	}
	if !found {
		t.Error("spike not selected")
	}
}

func TestGaussianKDegenerateConstantGradient(t *testing.T) {
	// σ = 0: the fallback must transmit exactly one entry, not zero.
	n := 100
	gk := NewGaussianK(Options{N: n, Density: 0.01})
	g := make([]float32, n)
	tensor.Fill(g, 0.5)
	p := gk.Encode(g)
	if len(p.Data) != 2 {
		t.Fatalf("selected %d entries for constant gradient, want 1", len(p.Data)/2)
	}
}

func TestGaussianKErrorFeedback(t *testing.T) {
	n := 1000
	gk := NewGaussianK(Options{N: n, Density: 0.01})
	g := randGrad(9, n)
	gk.Encode(g)
	// Residual plus transmitted must reconstruct the accumulated gradient:
	// after the first step acc == g.
	recon := append([]float32(nil), gk.ef.residual...)
	p := gk.Encode(make([]float32, n)) // second step with zero grad: acc == residual
	for i := 0; i < len(p.Data); i += 2 {
		ix := comm.Float32ToIndex(p.Data[i])
		recon[ix] = p.Data[i+1] // transmitted values come from acc
	}
	for i := range recon {
		want := float64(recon[i])
		got := float64(gk.ef.residual[i]) + 0
		if gk.ef.residual[i] != 0 {
			got = float64(gk.ef.residual[i])
		}
		_ = want
		_ = got
	}
	// Simpler invariant: residual(after) + transmitted == residual(before).
	var sumBefore, sumAfter, sumTx float64
	for _, v := range recon {
		sumBefore += float64(v)
	}
	for _, v := range gk.ef.residual {
		sumAfter += float64(v)
	}
	for i := 1; i < len(p.Data); i += 2 {
		sumTx += float64(p.Data[i])
	}
	if math.Abs(sumBefore-(sumAfter+sumTx)) > 1e-3 {
		t.Errorf("EF mass not conserved: before %v after %v tx %v", sumBefore, sumAfter, sumTx)
	}
}

// ---- sparse exchange plumbing ----

func TestSparseExchangeIgnoresCorruptIndices(t *testing.T) {
	// Defensive: an out-of-range index must not crash the reconstruction.
	p := Payload{Data: []float32{comm.Float32FromIndex(1 << 30), 1.5}}
	g := make([]float32, 4)
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		var sc comm.AllgatherVScratch
		return sparseExchange(p, g, c, &sc)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g {
		if v != 0 {
			t.Error("corrupt index should be dropped")
		}
	}
}
