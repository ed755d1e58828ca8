// Package core implements A2SGD — two-level gradient averaging — the
// contribution of "O(1) Communication for Distributed SGD through Two-Level
// Gradient Averaging" (Bhattacharya, Yu, Chowdhury; CLUSTER 2021).
//
// Per iteration, each worker reduces its n-element gradient to two scalars —
// the absolute mean of the non-negative entries (µ+) and the absolute mean
// of the negative entries (µ−) — allreduce-averages just those two values
// (64 bits per worker, O(1) communication), and reconstructs its update from
// the global means plus its local error ε:
//
//	µ+  = E[v_i | v_i ≥ 0]            µ− = E[|v_i| | v_i < 0]
//	enc(g) = pos(g)·µ+ − neg(g)·µ−                      (Eq. 2)
//	ε  = g − enc(g)                                     (Alg. 1 line 4)
//	(µ̄+, µ̄−) = Allreduce((µ+, µ−), average)             (Alg. 1 line 5)
//	g' = ε + pos(g)·µ̄+ − neg(g)·µ̄−                      (Alg. 1 line 6)
//
// Because ε is re-applied in the same iteration, the update is exactly
// g + ∇µ with ∇µ = µ̄ − enc(g): the per-coordinate variance of the gradient
// is retained (no variance blow-up), which is what Theorem 1's convergence
// proof relies on.
//
// ε is retained algebraically, never stored. It is produced and consumed in
// the same iteration and the gradient itself is untouched in between, so
// lines 4 and 6 collapse per element to
//
//	g'[i] = (g[i] − µ+) + µ̄+    where g[i] ≥ 0
//	g'[i] = (g[i] + µ−) − µ̄−    otherwise
//
// which is the same two float32 roundings, in the same order, as writing
// ε[i] = g[i] ∓ µ± to a buffer and reading it back for ε[i] ± µ̄± — a float32
// store and load change no bits — so the result is bitwise what the
// materialized algorithm computes (oracle_test.go keeps that two-pass
// algorithm as the oracle). Locally A2SGD therefore touches only the live
// gradient: one read pass for the means (Encode), one read-modify-write pass
// for the reconstruction (Exchange, tensor.SignedShift), and an instance
// holds no n-sized memory.
package core

import (
	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

// Stats holds the two-level statistics of one gradient.
type Stats struct {
	// MuPos is the absolute mean of the non-negative entries (0 if none).
	MuPos float32
	// MuNeg is the absolute mean of the negative entries (0 if none).
	MuNeg float32
	// NPos is the count of non-negative entries.
	NPos int
}

// Measure computes the two-level statistics of g in one parallel pass —
// the O(n) computation the paper's Table 2 lists for A2SGD.
func Measure(g []float32) Stats {
	mp, mn, np := tensor.ParSignedMeans(g)
	return Stats{MuPos: mp, MuNeg: mn, NPos: np}
}

// A2SGD is the two-level gradient averaging algorithm. It implements
// compress.Algorithm so the distributed runtime treats it uniformly with
// the baselines. One instance per worker.
type A2SGD struct {
	ef        bool // error feedback on (the paper's algorithm) or off (ablation)
	oneMean   bool // ablation: collapse to a single signed mean
	allgather bool // §4.4 future work: allgather-based mean exchange
	stats     Stats

	// Reusable scratch (zero-allocation steady state): payload backs the
	// two-scalar Encode result (the returned Payload aliases it — valid
	// until the next Encode on this instance), mu is Exchange's working
	// copy of the means, and gatherBuf holds the allgathered (µ+, µ−)
	// pairs of the WithAllgather exchange.
	payload   [2]float32
	mu        [2]float32
	gatherBuf []float32
	fv        tensor.VecView // flat-call adapter view
}

// Option configures an A2SGD instance.
type Option func(*A2SGD)

// WithoutErrorFeedback drops the local error term (the a2sgd-noef ablation,
// PAPER.md under Algorithm 1): the update becomes enc-only, g' = pos·µ̄+ − neg·µ̄−. The paper
// predicts this distorts gradients and slows convergence.
func WithoutErrorFeedback() Option { return func(a *A2SGD) { a.ef = false } }

// WithOneMean collapses the two-level scheme to a single mean of all
// entries (ablation): the paper argues this "over-simplification" is why
// two signed means are needed.
func WithOneMean() Option { return func(a *A2SGD) { a.oneMean = true } }

// WithAllgather switches the two-scalar exchange from Allreduce to an
// Allgather of every worker's (µ+, µ−) pair followed by local averaging —
// the optimization the paper's §4.4 announces as planned future work after
// observing Gaussian-K's Allgather advantage on fast networks. The result
// is numerically identical; only the collective differs.
func WithAllgather() Option { return func(a *A2SGD) { a.allgather = true } }

// New builds an A2SGD synchronizer for n-parameter gradients.
func New(n int, opts ...Option) *A2SGD {
	if n <= 0 {
		panic("core: non-positive parameter count")
	}
	a := &A2SGD{ef: true}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Name implements compress.Algorithm.
func (a *A2SGD) Name() string {
	switch {
	case a.oneMean:
		return "a2sgd-onemean"
	case !a.ef:
		return "a2sgd-noef"
	case a.allgather:
		return "a2sgd-allgather"
	default:
		return "a2sgd"
	}
}

// Stats returns the statistics captured by the last Encode.
func (a *A2SGD) Stats() Stats { return a.stats }

// Encode computes the two local means (Alg. 1 line 3) and nothing else: it
// reads g once and writes no n-sized memory. The error vector of line 4 is
// implied by g and the means, and Exchange applies it from there (see the
// package comment). The payload is exactly two float32 values — 64 bits —
// backed by instance scratch (valid until the next Encode on this instance).
func (a *A2SGD) Encode(g []float32) compress.Payload {
	return a.EncodeView(a.fv.Reset1(g))
}

// EncodeView implements compress.Algorithm over a strided gradient view:
// the signed means reduce across the segments in flattened order.
func (a *A2SGD) EncodeView(v *tensor.VecView) compress.Payload {
	mp, mn, np := v.ParSignedMeans()
	s := Stats{MuPos: mp, MuNeg: mn, NPos: np}
	if a.oneMean {
		// Single signed mean over all entries. Encoding it as µ+ = m and
		// µ− = −m makes pos·µ+ − neg·µ− equal m at every coordinate, so
		// the downstream reconstruction code is shared with the two-level
		// scheme.
		m := float32(v.Sum() / float64(v.Len()))
		s = Stats{MuPos: m, MuNeg: -m, NPos: v.Len()}
	}
	a.stats = s
	a.payload[0], a.payload[1] = s.MuPos, s.MuNeg
	return compress.Payload{Data: a.payload[:], Bits: 64}
}

// Exchange allreduce-averages the two means (Alg. 1 line 5) and rebuilds
// the synchronized gradient in g (lines 4 and 6 in one pass). g must still
// hold the gradient p was encoded from.
func (a *A2SGD) Exchange(p compress.Payload, g []float32, c *comm.Communicator) error {
	return a.ExchangeView(p, a.fv.Reset1(g), c)
}

// ExchangeView implements compress.Algorithm: after the two-scalar
// collective, one in-place pass over the view's segments subtracts the local
// mean of each element's sign class (p's two scalars) and adds the global one
// — ε + enc(µ̄) without ε ever existing in memory, bitwise equal to the
// materialized form (package comment). p carries everything the pass needs,
// so the instance keeps nothing between Encode and Exchange.
func (a *A2SGD) ExchangeView(p compress.Payload, v *tensor.VecView, c *comm.Communicator) error {
	a.mu[0], a.mu[1] = p.Data[0], p.Data[1]
	mu := a.mu[:]
	if a.allgather {
		// The gather buffer lives on the instance: its size depends only on
		// the group width, so after the first step the allgather exchange
		// runs without touching the allocator.
		if cap(a.gatherBuf) < 2*c.Size() {
			a.gatherBuf = make([]float32, 2*c.Size())
		}
		all := a.gatherBuf[:2*c.Size()]
		if err := c.Allgather(mu, all); err != nil {
			return err
		}
		var sp, sn float64
		for r := 0; r < c.Size(); r++ {
			sp += float64(all[2*r])
			sn += float64(all[2*r+1])
		}
		mu[0] = float32(sp / float64(c.Size()))
		mu[1] = float32(sn / float64(c.Size()))
	} else if err := c.AllreduceMean(mu, comm.AlgoRecursiveDoubling); err != nil {
		return err
	}
	gPos, gNeg := mu[0], mu[1]
	if a.ef {
		v.SignedShift(p.Data[0], p.Data[1], gPos, gNeg)
		return nil
	}
	// Ablation: enc-only reconstruction.
	for _, seg := range v.Segments() {
		for i, x := range seg {
			if x >= 0 {
				seg[i] = gPos
			} else {
				seg[i] = -gNeg
			}
		}
	}
	return nil
}

// ExchangeKind implements compress.Algorithm.
func (a *A2SGD) ExchangeKind() netsim.ExchangeKind {
	if a.allgather {
		return netsim.ExchangeAllgather
	}
	return netsim.ExchangeAllreduce
}

// PayloadBytes implements compress.Algorithm: 64 bits, independent of n —
// the O(1) headline of the paper.
func (a *A2SGD) PayloadBytes(n int) int64 { return 8 }

// Reset implements compress.Algorithm. A2SGD applies its error in the same
// iteration, so no state carries across steps; only the last statistics are
// cleared.
func (a *A2SGD) Reset() { a.stats = Stats{} }

var _ compress.Algorithm = (*A2SGD)(nil)
