package compress

import (
	"math"
	"runtime/debug"
	"sync"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// splitSegs cuts g into deterministic pseudo-random segments so the view
// tests sweep tensor boundaries landing anywhere relative to the kernels'
// block and unroll widths.
func splitSegs(seed uint64, g []float32) [][]float32 {
	rng := tensor.NewRNG(seed)
	var segs [][]float32
	lo := 0
	for lo < len(g) {
		w := 1 + rng.Intn(1+len(g)/3)
		if rng.Intn(3) == 0 {
			w = 1 + rng.Intn(9) // short odd segments too
		}
		if lo+w > len(g) {
			w = len(g) - lo
		}
		segs = append(segs, g[lo:lo+w])
		lo += w
	}
	return segs
}

// viewEquivAlgos is the builtin set with per-element or residual state whose
// view path must stay in bitwise lockstep with the flat path across steps.
var viewEquivAlgos = []string{"dense", "topk", "gaussiank", "qsgd", "qsgd-elias"}

// TestEncodeViewMatchesFlatBitwise runs a flat instance and a view instance
// of every builtin over the same gradient sequence and requires bit-identical
// payloads every step — which also proves the internal state (residuals,
// RNG position) stays in lockstep.
func TestEncodeViewMatchesFlatBitwise(t *testing.T) {
	const n, steps = 5000, 4
	for _, name := range viewEquivAlgos {
		o := DefaultOptions(n)
		o.Seed = 9
		flat, err := Build(&Spec{Name: name}, o)
		if err != nil {
			t.Fatal(err)
		}
		viewed, err := Build(&Spec{Name: name}, o)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < steps; step++ {
			g := randGrad(uint64(100+step), n)
			gv := append([]float32(nil), g...)
			v := tensor.NewVecView(splitSegs(uint64(7+step), gv)...)
			if len(v.Segments()) < 2 {
				t.Fatalf("%s: split produced a contiguous view", name)
			}
			pf := flat.Encode(g)
			pv := viewed.EncodeView(v)
			if pf.Bits != pv.Bits {
				t.Fatalf("%s step %d: Bits %d != %d", name, step, pv.Bits, pf.Bits)
			}
			if len(pf.Data) != len(pv.Data) {
				t.Fatalf("%s step %d: payload words %d != %d", name, step, len(pv.Data), len(pf.Data))
			}
			for i := range pf.Data {
				if math.Float32bits(pf.Data[i]) != math.Float32bits(pv.Data[i]) {
					t.Fatalf("%s step %d: payload word %d: %08x != %08x",
						name, step, i, math.Float32bits(pv.Data[i]), math.Float32bits(pf.Data[i]))
				}
			}
		}
	}
}

// runSyncView is runSync through the view surface: each worker's gradient is
// wrapped in a multi-segment view, encoded and exchanged through it, and the
// reconstructed flattened vector returned.
func runSyncView(t *testing.T, p int, build func(rank int) Algorithm, grads [][]float32) [][]float32 {
	t.Helper()
	out := make([][]float32, p)
	var mu sync.Mutex
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		a := build(c.Rank())
		g := append([]float32(nil), grads[c.Rank()]...)
		v := tensor.NewVecView(splitSegs(uint64(31+c.Rank()), g)...)
		pl := a.EncodeView(v)
		if err := a.ExchangeView(pl, v, c); err != nil {
			return err
		}
		res := make([]float32, v.Len())
		v.CopyTo(res)
		mu.Lock()
		out[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExchangeViewMatchesFlatBitwise: the synchronized gradient
// reconstructed into a strided view is bit-identical to the flat exchange
// for every builtin.
func TestExchangeViewMatchesFlatBitwise(t *testing.T) {
	const p, n = 3, 4000
	grads := make([][]float32, p)
	for r := range grads {
		grads[r] = randGrad(uint64(40+r), n)
	}
	for _, name := range viewEquivAlgos {
		build := func(rank int) Algorithm {
			o := DefaultOptions(n)
			o.Seed = uint64(rank + 1)
			a, err := Build(&Spec{Name: name}, o)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		flat := runSync(t, p, build, grads)
		viewed := runSyncView(t, p, build, grads)
		for r := 0; r < p; r++ {
			for i := range flat[r] {
				if math.Float32bits(flat[r][i]) != math.Float32bits(viewed[r][i]) {
					t.Fatalf("%s rank %d [%d]: view %v != flat %v", name, r, i, viewed[r][i], flat[r][i])
				}
			}
		}
	}
}

// TestPeriodicViewStepPhase: the view surface advances the same step counter
// as the flat one, so a wrapper driven through views syncs on the same steps.
func TestPeriodicViewStepPhase(t *testing.T) {
	const n = 256
	o := DefaultOptions(n)
	pa := NewPeriodic(NewTopK(o), 3)
	g := randGrad(5, n)
	gv := append([]float32(nil), g...)
	v := tensor.NewVecView(splitSegs(3, gv)...)
	phaseOK := true
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		for step := 0; step < 6; step++ {
			pl := pa.EncodeView(v)
			if wantSync := step%3 == 2; (pl.Bits != 0) != wantSync {
				phaseOK = false
			}
			if err := pa.ExchangeView(pl, v, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !phaseOK {
		t.Fatal("view surface synced on the wrong steps")
	}
	if pa.step != 6 {
		t.Fatalf("step counter %d after 6 view exchanges, want 6", pa.step)
	}
}

// TestBucketedViewMatchesFlat: driving the buckets through sub-views of a
// multi-segment view produces the same per-bucket payload bits and
// synchronized gradient as driving them over the contiguous vector (the
// one-segment view every flat Encode/Exchange wraps).
func TestBucketedViewMatchesFlat(t *testing.T) {
	const p, n = 2, 3000
	bounds := []int{0, 700, 1800, n}
	build := func(rank int) *Bucketed {
		return NewBucketed(bounds, func(b, bn int) Algorithm {
			bo := DefaultOptions(bn)
			bo.Seed = uint64(rank + 1 + b)
			name := "topk"
			if b == 1 {
				name = "qsgd"
			}
			a, err := Build(&Spec{Name: name}, bo)
			if err != nil {
				t.Fatal(err)
			}
			return a
		})
	}
	// run returns every rank's reconstructed gradient and retained copies
	// of its per-bucket payloads.
	run := func(segment bool) (out [][]float32, words [][][]float32) {
		out, words = make([][]float32, p), make([][][]float32, p)
		var mu sync.Mutex
		err := comm.RunGroup(p, func(c *comm.Communicator) error {
			g := randGrad(uint64(60+c.Rank()), n)
			v := tensor.NewVecView(g)
			if segment {
				v = tensor.NewVecView(splitSegs(uint64(31+c.Rank()), g)...)
			}
			payloads, err := syncBuckets(build(c.Rank()), v, c)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			out[c.Rank()] = g
			for _, pl := range payloads {
				words[c.Rank()] = append(words[c.Rank()], append([]float32(nil), pl.Data...))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, words
	}
	flat, flatWords := run(false)
	viewed, viewWords := run(true)
	for r := 0; r < p; r++ {
		for b := range flatWords[r] {
			if len(flatWords[r][b]) != len(viewWords[r][b]) {
				t.Fatalf("rank %d bucket %d: payload words %d != %d", r, b, len(viewWords[r][b]), len(flatWords[r][b]))
			}
			if i, ok := wordsEqual(viewWords[r][b], flatWords[r][b]); !ok {
				t.Fatalf("rank %d bucket %d: payload word %d differs", r, b, i)
			}
		}
		for i := range flat[r] {
			if math.Float32bits(flat[r][i]) != math.Float32bits(viewed[r][i]) {
				t.Fatalf("rank %d [%d]: view %v != flat %v", r, i, viewed[r][i], flat[r][i])
			}
		}
	}
}

// refEliasEncode is the historical per-bit QSGDElias encoder (scalar
// quantization loop + bitWriter), kept as the wire-format reference for the
// batched writer: same levels in the same RNG order, same MSB-first stream,
// same header words.
func refEliasEncode(s int, seed uint64, g []float32) ([]float32, int64) {
	return refEliasEncodeFrom(s, tensor.NewRNG(seed), g)
}

// TestQSGDEliasWireFormatPinned: the batched block encoder emits exactly the
// historical stream — checkpoint payloads and cross-version exchanges stay
// compatible.
func TestQSGDEliasWireFormatPinned(t *testing.T) {
	for _, n := range []int{1, 3, 31, 1000, 4096, 5000, 10000} {
		o := DefaultOptions(n)
		o.Seed = 77
		e := NewQSGDElias(o)
		for step := 0; step < 3; step++ {
			g := randGrad(uint64(200+17*n+step), n)
			// Reference RNG resumes from the instance's current position.
			ref := tensor.NewRNG(1)
			ref.SetState(e.q.rng.State())
			wantData, wantBits := refEliasEncodeFrom(e.q.s, ref, g)
			p := e.Encode(g)
			if p.Bits != wantBits {
				t.Fatalf("n=%d step %d: Bits %d, reference %d", n, step, p.Bits, wantBits)
			}
			if len(p.Data) != len(wantData) {
				t.Fatalf("n=%d step %d: %d payload words, reference %d", n, step, len(p.Data), len(wantData))
			}
			for i := range wantData {
				if math.Float32bits(p.Data[i]) != math.Float32bits(wantData[i]) {
					t.Fatalf("n=%d step %d: word %d = %08x, reference %08x",
						n, step, i, math.Float32bits(p.Data[i]), math.Float32bits(wantData[i]))
				}
			}
		}
	}
	// And the zero-state constructor path matches too.
	g := randGrad(9, 500)
	o := DefaultOptions(500)
	o.Seed = 5
	wantData, wantBits := refEliasEncode(NewQSGD(o).s, o.Seed, g)
	p := NewQSGDElias(o).Encode(g)
	if p.Bits != wantBits || len(p.Data) != len(wantData) {
		t.Fatalf("fresh instance: Bits %d/%d words %d/%d", p.Bits, wantBits, len(p.Data), len(wantData))
	}
}

// refEliasEncodeFrom is refEliasEncode continuing an existing RNG stream.
func refEliasEncodeFrom(s int, rng *tensor.RNG, g []float32) ([]float32, int64) {
	var w bitWriter
	norm := float32(tensor.Norm2(g))
	if norm > 0 {
		for _, x := range g {
			sign := uint32(0)
			a := x
			if a < 0 {
				sign = 1
				a = -a
			}
			scaled := float64(a) / float64(norm) * float64(s)
			level := uint32(scaled)
			if rng.Float64() < scaled-float64(level) {
				level++
			}
			if level > uint32(s) {
				level = uint32(s)
			}
			eliasGammaWrite(&w, level+1)
			if level > 0 {
				w.writeBit(sign)
			}
		}
	}
	data := make([]float32, 2+len(w.words))
	data[0] = math.Float32frombits(math.Float32bits(norm))
	data[1] = comm.Float32FromIndex(uint32(len(g)))
	for i, word := range w.words {
		data[2+i] = math.Float32frombits(word)
	}
	return data, int64(w.nbits) + 64
}

// TestSparseScratchFirstEncodeNoGrow: satellite check for the pre-sizing
// slack — a fresh Gaussian-K instance absorbs its first selections without
// growing the idx/val/data buffers.
func TestSparseScratchFirstEncodeNoGrow(t *testing.T) {
	const n = 1 << 16
	o := DefaultOptions(n)
	gk := NewGaussianK(o)
	idxCap, valCap, dataCap := cap(gk.sc.idx), cap(gk.sc.val), cap(gk.sc.data)
	if idxCap < o.K()+o.K()/4 {
		t.Fatalf("idx cap %d lacks slack above k=%d", idxCap, o.K())
	}
	for step := 0; step < 3; step++ {
		gk.Encode(randGrad(uint64(300+step), n))
	}
	if cap(gk.sc.idx) != idxCap || cap(gk.sc.val) != valCap || cap(gk.sc.data) != dataCap {
		t.Fatalf("selection scratch grew: idx %d→%d val %d→%d data %d→%d",
			idxCap, cap(gk.sc.idx), valCap, cap(gk.sc.val), dataCap, cap(gk.sc.data))
	}
}

// TestEncodeViewZeroAllocSteadyState pins the view path's allocation
// discipline the same way the flat pins do.
func TestEncodeViewZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 16
	for _, tc := range []struct {
		name    string
		warmups int
	}{
		{"topk", 1},
		{"gaussiank", 5},
		{"qsgd", 1},
		{"qsgd-elias", 1},
		{"dense", 1},
	} {
		o := DefaultOptions(n)
		o.Seed = 3
		alg, err := Build(&Spec{Name: tc.name}, o)
		if err != nil {
			t.Fatal(err)
		}
		g := randGrad(18, n)
		v := tensor.NewVecView(splitSegs(11, g)...)
		for i := 0; i < tc.warmups; i++ {
			alg.EncodeView(v)
		}
		func() {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if a := testing.AllocsPerRun(10, func() { alg.EncodeView(v) }); a != 0 {
				t.Errorf("%s: %.1f allocs per steady-state EncodeView, want 0", tc.name, a)
			}
		}()
	}
}
