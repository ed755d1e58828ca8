package core

import (
	"math"
	"sync"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// splitSegs cuts g into deterministic pseudo-random segments (the compress
// package has its own twin; both sweep boundaries across kernel widths).
func splitSegs(seed uint64, g []float32) [][]float32 {
	rng := tensor.NewRNG(seed)
	var segs [][]float32
	lo := 0
	for lo < len(g) {
		w := 1 + rng.Intn(1+len(g)/3)
		if rng.Intn(3) == 0 {
			w = 1 + rng.Intn(9)
		}
		if lo+w > len(g) {
			w = len(g) - lo
		}
		segs = append(segs, g[lo:lo+w])
		lo += w
	}
	return segs
}

// TestA2SGDViewMatchesFlatBitwise: every A2SGD variant synchronizes a
// strided view bit-identically to the flat vector — encode payload,
// exchanged means, and reconstructed gradient.
func TestA2SGDViewMatchesFlatBitwise(t *testing.T) {
	const p, n = 3, 4000
	grads := make([][]float32, p)
	for r := range grads {
		rng := tensor.NewRNG(uint64(50 + r))
		grads[r] = make([]float32, n)
		rng.NormVec(grads[r], 0, 0.1)
	}
	variants := map[string]func() *A2SGD{
		"a2sgd":     func() *A2SGD { return New(n) },
		"noef":      func() *A2SGD { return New(n, WithoutErrorFeedback()) },
		"onemean":   func() *A2SGD { return New(n, WithOneMean()) },
		"allgather": func() *A2SGD { return New(n, WithAllgather()) },
	}
	for name, build := range variants {
		run := func(useView bool) [][]float32 {
			out := make([][]float32, p)
			var mu sync.Mutex
			err := comm.RunGroup(p, func(c *comm.Communicator) error {
				a := build()
				g := append([]float32(nil), grads[c.Rank()]...)
				res := make([]float32, n)
				if useView {
					v := tensor.NewVecView(splitSegs(uint64(13+c.Rank()), g)...)
					pl := a.EncodeView(v)
					if err := a.ExchangeView(pl, v, c); err != nil {
						return err
					}
					v.CopyTo(res)
				} else {
					pl := a.Encode(g)
					if err := a.Exchange(pl, g, c); err != nil {
						return err
					}
					copy(res, g)
				}
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
		flat := run(false)
		viewed := run(true)
		for r := 0; r < p; r++ {
			for i := range flat[r] {
				if math.Float32bits(flat[r][i]) != math.Float32bits(viewed[r][i]) {
					t.Fatalf("%s rank %d [%d]: view %v != flat %v", name, r, i, viewed[r][i], flat[r][i])
				}
			}
		}
	}
}
