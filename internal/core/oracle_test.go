package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// Enc is the reference enc operator (Eq. 2) the tests compare against,
// applied in place of dst: dst[i] = µ+ where g[i] ≥ 0, −µ− where g[i] < 0.
// g and dst may alias.
func Enc(dst, g []float32, s Stats) {
	if len(dst) != len(g) {
		panic("core: Enc length mismatch")
	}
	for i, x := range g {
		if x >= 0 {
			dst[i] = s.MuPos
		} else {
			dst[i] = -s.MuNeg
		}
	}
}

// refMeans is Algorithm 1 line 3 in the order internal/tensor's reduction
// specification writes down, from its text as plain loops (no kernel, no
// tensor call): per segment, blocks of 65 536; per block, element i of each
// full group of 8 into float64 lane i mod 8 of its class, the lanes folded by
// the halving tree, the tail added ascending; blocks, then segments, folded
// ascending.
func refMeans(segs [][]float32) (muPos, muNeg float32) {
	const lanes, block = 8, 1 << 16
	var sp, sn float64
	nPos, nNeg := 0, 0
	for _, seg := range segs {
		var segP, segN float64
		for lo := 0; lo < len(seg); lo += block {
			blk := seg[lo:min(lo+block, len(seg))]
			var lp, ln [lanes]float64
			full := len(blk) / lanes * lanes
			for i, x := range blk[:full] {
				if x >= 0 {
					lp[i%lanes] += float64(x)
				} else {
					ln[i%lanes] -= float64(x)
				}
			}
			for h := lanes / 2; h >= 1; h /= 2 {
				for j := 0; j < h; j++ {
					lp[j], ln[j] = lp[j]+lp[j+h], ln[j]+ln[j+h]
				}
			}
			for _, x := range blk[full:] {
				if x >= 0 {
					lp[0] += float64(x)
				} else {
					ln[0] -= float64(x)
				}
			}
			segP += lp[0]
			segN += ln[0]
		}
		sp += segP
		sn += segN
		for _, x := range seg {
			if x >= 0 {
				nPos++
			} else {
				nNeg++
			}
		}
	}
	if nPos > 0 {
		muPos = float32(sp / float64(nPos))
	}
	if nNeg > 0 {
		muNeg = float32(sn / float64(nNeg))
	}
	return muPos, muNeg
}

// refSync is Algorithm 1 lines 3–6 exactly as the paper writes them, kept
// here as the oracle for the bufferless path: the two local means (line 3,
// refMeans), the error vector materialized (line 4), the means
// allreduce-averaged (line 5), and a second pass that adds the global means
// back onto the stored error (line 6). Scalar branches, one allocation per
// segment, no kernels.
func refSync(segs [][]float32, c *comm.Communicator) error {
	muPos, muNeg := refMeans(segs)
	mu := []float32{muPos, muNeg}
	if err := c.AllreduceMean(mu, comm.AlgoRecursiveDoubling); err != nil {
		return err
	}
	for _, g := range segs {
		eps := make([]float32, len(g))
		for i, x := range g {
			if x >= 0 {
				eps[i] = x - muPos
			} else {
				eps[i] = x + muNeg
			}
		}
		for i, x := range g {
			if x >= 0 {
				g[i] = eps[i] + mu[0]
			} else {
				g[i] = eps[i] - mu[1]
			}
		}
	}
	return nil
}

// sameBits is bitwise equality, with any NaN equal to any NaN (which payload
// an operation on a NaN yields is the hardware's choice, not the algorithm's).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// diffAgainstOracle synchronizes grads (one per rank) through A2SGD over a
// view cut by segs, and through refSync on a flat copy, and requires every
// element of every rank to agree bitwise.
func diffAgainstOracle(t *testing.T, label string, grads [][]float32, segs func(rank int, g []float32) [][]float32) {
	t.Helper()
	err := comm.RunGroup(len(grads), func(c *comm.Communicator) error {
		g := grads[c.Rank()]
		want := append([]float32(nil), g...)
		got := append([]float32(nil), g...)
		a := New(len(g) + 1) // +1: a zero-length gradient is legal, New(0) is not
		v := tensor.NewVecView(segs(c.Rank(), got)...)
		if err := a.ExchangeView(a.EncodeView(v), v, c); err != nil {
			return err
		}
		if err := refSync(segs(c.Rank(), want), c); err != nil {
			return err
		}
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Errorf("%s: rank %d/%d [%d] x=%v: got %#08x, Algorithm 1 gives %#08x",
					label, c.Rank(), len(grads), i, g[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

func oneSeg(_ int, g []float32) [][]float32 { return [][]float32{g} }

func randGrads(seed uint64, workers, n int) [][]float32 {
	grads := make([][]float32, workers)
	for r := range grads {
		grads[r] = randGrad(seed+uint64(r), n)
	}
	return grads
}

// Every length from empty through the kernel's block sizes, for 1–4
// workers, over contiguous, unaligned and multi-segment views.
func TestBufferlessMatchesAlgorithm1Bitwise(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		for n := 0; n <= 67; n++ {
			grads := randGrads(uint64(1000*workers+n), workers, n)
			diffAgainstOracle(t, "contiguous", grads, oneSeg)
			diffAgainstOracle(t, "segmented", grads, func(rank int, g []float32) [][]float32 {
				return splitSegs(uint64(7*n+rank), g)
			})
		}
		// Sub-slices starting 1–3 floats into an allocation: no 16-byte
		// alignment for the vector loads and stores.
		for off := 1; off < 4; off++ {
			grads := randGrads(uint64(90+off), workers, 517+off)
			for r := range grads {
				grads[r] = grads[r][off:]
			}
			diffAgainstOracle(t, "unaligned", grads, oneSeg)
		}
	}
}

// Paper-scale bucket: past 1 Mi elements the means take the parallel
// reduction and the reconstruction streams from memory rather than cache.
func TestBufferlessMatchesAlgorithm1Large(t *testing.T) {
	const n = 1<<20 + 37
	for _, workers := range []int{1, 3} {
		grads := randGrads(uint64(500+workers), workers, n+1)
		for r := range grads {
			grads[r] = grads[r][1:]
		}
		diffAgainstOracle(t, "large", grads, oneSeg)
		diffAgainstOracle(t, "large-segmented", grads, func(rank int, g []float32) [][]float32 {
			cut := n/3 + rank
			return [][]float32{g[:cut], g[cut : cut+5], g[cut+5:]}
		})
	}
}

// Zeros of both signs, NaN, infinities, denormals and one-sided buckets:
// the sign classes must fall exactly as Algorithm 1's x ≥ 0 puts them
// (−0.0 non-negative, NaN on the negative side) in every kernel lane.
func TestBufferlessMatchesAlgorithm1Specials(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	const denorm = math.SmallestNonzeroFloat32
	fill := func(n int, f func(i int) float32) []float32 {
		g := make([]float32, n)
		for i := range g {
			g[i] = f(i)
		}
		return g
	}
	buckets := map[string][]float32{
		"+0":           fill(23, func(int) float32 { return 0 }),
		"-0":           fill(23, func(int) float32 { return negZero }),
		"zeros-mixed":  fill(23, func(i int) float32 { return []float32{0, negZero, 1, -1}[i%4] }),
		"all-positive": fill(37, func(i int) float32 { return float32(i) + 0.5 }),
		"all-negative": fill(37, func(i int) float32 { return -float32(i) - 0.5 }),
		"denormals":    fill(23, func(i int) float32 { return []float32{denorm, -denorm, 3 * denorm, 1e-39, -1e-39}[i%5] }),
		"denorm+big":   fill(23, func(i int) float32 { return []float32{denorm, -denorm, 1e30, -1e30}[i%4] }),
		"max":          fill(23, func(i int) float32 { return []float32{math.MaxFloat32, -math.MaxFloat32, 1}[i%3] }),
	}
	// One special at a time in every lane of a 23-element bucket (8+8+4+1+1+1
	// through the kernel's blocks) of otherwise ordinary values.
	for name, sp := range map[string]float32{"nan": nan, "+inf": inf, "-inf": -inf, "-0-lane": negZero} {
		for lane := 0; lane < 23; lane++ {
			g := fill(23, func(i int) float32 { return float32(i%7) - 3.25 })
			g[lane] = sp
			buckets[name+"@"+string(rune('a'+lane))] = g
		}
	}
	for name, g := range buckets {
		diffAgainstOracle(t, name, [][]float32{g}, oneSeg)
		// A second worker with an ordinary gradient, so the global means
		// differ from the local ones and the shift is not a no-op.
		diffAgainstOracle(t, name+"/2", [][]float32{g, randGrad(77, len(g))}, oneSeg)
	}
}

// TestOracleDigestAcrossBuilds pins the bits of one synchronized gradient —
// two ranks, 70 001 elements over three segments, so blocks, groups, tails and
// the segment fold are all in it — as FNV-1a digests that must hold on every
// build: amd64 with its vector kernels and -tags purego alike. The gradient
// comes straight from integer draws (random sign, mantissa and one of 40
// exponents), so it is the same on every target and its sums round.
func TestOracleDigestAcrossBuilds(t *testing.T) {
	const n = 70001
	var digests [2]uint64
	err := comm.RunGroup(len(digests), func(c *comm.Communicator) error {
		rng := tensor.NewRNG(uint64(31 + c.Rank()))
		g := make([]float32, n)
		for i := range g {
			r := rng.Uint64()
			g[i] = math.Float32frombits(uint32(r>>63)<<31 | uint32(87+(r>>32)%41)<<23 | uint32(r)&(1<<23-1))
		}
		v := tensor.NewVecView(g[:30000], g[30000:30007], g[30007:])
		a := New(n)
		if err := a.ExchangeView(a.EncodeView(v), v, c); err != nil {
			return err
		}
		h := fnv.New64a()
		var b [4]byte
		for _, x := range g {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
		digests[c.Rank()] = h.Sum64()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := [2]uint64{0xcfedcd1f5b4a7142, 0xb6e8e08c283b0e1b}; digests != want {
		t.Fatalf("digests %#x, pinned %#x", digests, want)
	}
}
