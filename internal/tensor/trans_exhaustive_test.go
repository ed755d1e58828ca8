//go:build exhaustive

package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTransExhaustive is the proof behind Sigmoid's and Tanh's rounding
// test: every kernel variant's Sigmoid and Tanh against sigmoidRef and
// tanhRef on all 2³² float32 bit patterns, NaN matching any NaN. Run it as
//
//	go test -tags exhaustive -run '^TestTransExhaustive$' -timeout 60m ./internal/tensor/
//
// and again with GODEBUG=cpu.fma=off, which moves math.Exp (and so the
// references) to its other amd64 path. It logs, per variant and function,
// how many lanes fell back to the scalar expression (the blocks its kernel
// declined, times its lanes), and how many arguments have a reference whose
// float64 value lies within the margin of a float32 rounding midpoint, with
// eight of them. The portable variant is the scalar expression
// itself and is not rerun.
func TestTransExhaustive(t *testing.T) {
	var vs []transVariant
	for _, v := range transVariants() {
		if v.lanes > 0 {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		t.Skip("no transcendental kernel on this build and CPU")
	}
	const chunk = 1 << 16
	var next atomic.Uint64
	var failures atomic.Int64
	fell := make([][2]atomic.Int64, len(vs))
	var near [2]atomic.Int64
	var mu sync.Mutex
	var nearArgs [2][]uint32
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, got := make(Vec, chunk), make(Vec, chunk)
			sig, tnh := make(Vec, chunk), make(Vec, chunk)
			for {
				start := next.Add(chunk) - chunk
				if start >= 1<<32 || failures.Load() > 10 {
					return
				}
				for i := range src {
					x := math.Float32frombits(uint32(start) + uint32(i))
					// sigmoidRef's and tanhRef's expressions, kept in float64
					// to find the references near a midpoint.
					for f, r := range [2]float64{1 / (1 + math.Exp(-float64(x))), math.Tanh(float64(x))} {
						if d := int64(math.Float64bits(r)&(1<<29-1)) - 1<<28; x == x && math.Abs(r) >= 0x1p-126 && d >= -512 && d <= 512 {
							near[f].Add(1)
							mu.Lock()
							if len(nearArgs[f]) < 8 {
								nearArgs[f] = append(nearArgs[f], math.Float32bits(x))
							}
							mu.Unlock()
						}
						if f == 0 {
							sig[i] = float32(r)
						} else {
							tnh[i] = float32(r)
						}
					}
					src[i] = x
				}
				for vi, v := range vs {
					for f, k := range [2]struct {
						name   string
						kernel func(dst, src Vec) int
						scalar func(dst, src Vec)
						want   Vec
					}{{"Sigmoid", v.sigmoid, sigmoidScalar, sig}, {"Tanh", v.tanh, tanhScalar, tnh}} {
						declined := 0
						transBlocks(chunk, v.lanes, func(lo, hi int) int {
							n := k.kernel(got[lo:hi], src[lo:hi])
							if lo+n < hi {
								declined++
							}
							return n
						}, func(lo, hi int) { k.scalar(got[lo:hi], src[lo:hi]) })
						fell[vi][f].Add(int64(declined * v.lanes))
						for i, x := range src {
							if !same32(got[i], k.want[i]) && failures.Add(1) <= 10 {
								t.Errorf("%s: %s(%g [%#08x]) = %g [%#08x], scalar %g [%#08x]", v.name, k.name, x,
									math.Float32bits(x), got[i], math.Float32bits(got[i]), k.want[i], math.Float32bits(k.want[i]))
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("references within 512 float64 ulps of a float32 rounding midpoint: Sigmoid %d (e.g. %#08x), Tanh %d (e.g. %#08x)",
		near[0].Load(), nearArgs[0], near[1].Load(), nearArgs[1])
	for vi, v := range vs {
		t.Logf("%s: lanes that fell back to the scalar expression: Sigmoid %d, Tanh %d of 2³²",
			v.name, fell[vi][0].Load(), fell[vi][1].Load())
	}
}
