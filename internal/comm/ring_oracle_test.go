package comm_test

import (
	"fmt"
	"math"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/tensor"
)

// ringOracle is the naive single-threaded reference of the flat ring
// allreduce, written from the order in the package comment ("Ring reduction
// order"): segment j of the n-element vector, bounded like the ring's
// segments (j·n/P to (j+1)·n/P), starts as rank j's values and takes rank
// (j+k) mod P's for k = 1…P−1 as acc = x + acc; the mean is acc·(1/P), one
// float32 rounding each. It returns the sum and the mean every rank must hold.
func ringOracle(xs [][]float32) (sum, mean []float32) {
	p, n := len(xs), len(xs[0])
	sum = make([]float32, n)
	mean = make([]float32, n)
	inv := 1 / float32(p)
	for j := 0; j < p; j++ {
		for i := j * n / p; i < (j+1)*n/p; i++ {
			acc := xs[j][i]
			for k := 1; k < p; k++ {
				acc = xs[(j+k)%p][i] + acc
			}
			sum[i] = acc
			mean[i] = acc * inv
		}
	}
	return sum, mean
}

// recDoublingOracle is the naive single-threaded reference of recursive
// doubling, written from the order in the package comment ("Recursive-doubling
// order"): with pow2 the largest power of two ≤ P and rem = P − pow2, rank
// 2i+1 folds into rank 2i for i < rem (new rank i) and rank q ≥ 2·rem becomes
// new rank q − rem; in each mask round every new rank takes v = v + partner
// from new rank n XOR mask. Every rank ends with new rank 0's vector; the mean
// is sum·(1/P).
func recDoublingOracle(xs [][]float32) (sum, mean []float32) {
	add := func(a, b []float32) []float32 {
		out := make([]float32, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}
	p := len(xs)
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2
	v := make([][]float32, pow2)
	for q := range v {
		v[q] = xs[q+rem]
		if q < rem {
			v[q] = add(xs[2*q], xs[2*q+1])
		}
	}
	for mask := 1; mask < pow2; mask <<= 1 {
		next := make([][]float32, pow2)
		for q := range v {
			next[q] = add(v[q], v[q^mask])
		}
		v = next
	}
	sum = v[0]
	mean = make([]float32, len(sum))
	for i, x := range sum {
		mean[i] = x * (1 / float32(p))
	}
	return sum, mean
}

// TestRingAllreduceMatchesOracle holds AllreduceSum and AllreduceMean with
// AlgoRing to the oracle bit for bit, on both fabrics, over group sizes
// that do and do not divide n and lengths that leave ranks with empty,
// short and uneven segments.
func TestRingAllreduceMatchesOracle(t *testing.T) {
	holdToOracle(t, comm.AlgoRing, []int{2, 3, 4, 5, 8}, func(p int) []int { return []int{1, p - 1, 4095, 4096, 1<<20 + 7} }, ringOracle)
}

// TestRecDoublingAllreduceMatchesOracle holds AllreduceSum and AllreduceMean
// with AlgoRecursiveDoubling to recDoublingOracle bit for bit, on both fabrics,
// over power-of-two group sizes and ones that fold one or two ranks.
func TestRecDoublingAllreduceMatchesOracle(t *testing.T) {
	holdToOracle(t, comm.AlgoRecursiveDoubling, []int{2, 3, 5, 6, 8}, func(int) []int { return []int{1, 2, 4095} }, recDoublingOracle)
}

// holdToOracle runs AllreduceSum and AllreduceMean with algo at every group
// size in ps over the lengths ns(p), in process and over TCP, and requires
// every rank to hold the oracle's sum and mean bit for bit.
func holdToOracle(t *testing.T, algo comm.AllreduceAlgorithm, ps []int, ns func(p int) []int,
	oracle func([][]float32) (sum, mean []float32)) {
	fabrics := []struct {
		name string
		run  func(size int, body func(*comm.Communicator) error) error
	}{
		{"inproc", comm.RunGroup},
		{"tcp", tcpnet.RunGroup},
	}
	for _, p := range ps {
		ns := ns(p)
		xs := make([][][]float32, len(ns)) // [case][rank]
		sums := make([][]float32, len(ns))
		means := make([][]float32, len(ns))
		for ci, n := range ns {
			xs[ci] = make([][]float32, p)
			for r := range xs[ci] {
				xs[ci][r] = make([]float32, n)
				tensor.NewRNG(uint64(1000*p+10*ci+r)).NormVec(xs[ci][r], 0, 1)
			}
			sums[ci], means[ci] = oracle(xs[ci])
		}
		for _, f := range fabrics {
			err := f.run(p, func(c *comm.Communicator) error {
				for ci, n := range ns {
					for _, op := range []struct {
						name string
						run  func([]float32, comm.AllreduceAlgorithm) error
						want []float32
					}{
						{"sum", c.AllreduceSum, sums[ci]},
						{"mean", c.AllreduceMean, means[ci]},
					} {
						v := append([]float32(nil), xs[ci][c.Rank()]...)
						if err := op.run(v, algo); err != nil {
							return err
						}
						for i := range v {
							if math.Float32bits(v[i]) != math.Float32bits(op.want[i]) {
								return fmt.Errorf("n=%d %s: rank %d element %d is %v, oracle %v",
									n, op.name, c.Rank(), i, v[i], op.want[i])
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s P=%d: %v", f.name, p, err)
			}
		}
	}
}
