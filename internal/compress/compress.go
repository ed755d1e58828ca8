package compress

import (
	"fmt"

	"a2sgd/internal/comm"
	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

// Payload is the result of local compression: the packed float32 words that
// will travel on the fabric plus the analytic size in bits. Integer data
// (sparse indices, packed quantization words) is bit-cast into the float32
// stream via comm.Float32FromIndex.
//
// Ownership: Data aliases scratch owned by the algorithm instance that
// produced it and is only valid until the next Encode call on that same
// instance — the zero-allocation contract that keeps the steady-state hot
// path off the allocator (ARCHITECTURE.md "Memory discipline & hot path").
// The training pipeline naturally respects it (each bucket's payload is
// consumed by its Exchange before that bucket's next Encode); callers that
// need a payload to outlive the next Encode must copy Data explicitly.
type Payload struct {
	// Data is the packed payload handed to the collective.
	Data []float32
	// Bits is the analytic payload size in bits (what Table 2 reports).
	Bits int64
}

// Algorithm is one gradient-synchronization method.
//
// An Algorithm instance belongs to a single worker: it owns per-worker state
// (error-feedback residuals, RNG) and must not be shared across goroutines.
//
// The view methods are the primary implementations: every builtin encodes
// from and reconstructs into a strided multi-segment gradient view
// (tensor.VecView), which is how the training runtime hands a bucket the
// layers' live gradient storage even when the bucket spans tensor
// boundaries — no gather copy before encode, no scatter copy after decode.
// The flat Encode/Exchange are thin adapters that wrap g in an
// instance-owned single-segment view; a single-segment view takes exactly
// the flat code paths, so the two surfaces are bitwise identical.
type Algorithm interface {
	// Name returns the identifier used in reports ("a2sgd", "topk", ...).
	Name() string
	// Encode runs the local compression of gradient g. It may read and
	// update internal residual state but must not modify g. The returned
	// Payload may alias instance scratch: it is valid until the next
	// Encode on this instance (see the Payload ownership contract).
	Encode(g []float32) Payload
	// EncodeView is Encode over a strided gradient view. Same contracts.
	EncodeView(v *tensor.VecView) Payload
	// Exchange performs the collective synchronization of the payload and
	// writes the synchronized (worker-averaged) gradient into g. g must be
	// the same vector passed to the immediately preceding Encode.
	Exchange(p Payload, g []float32, c *comm.Communicator) error
	// ExchangeView is Exchange over a strided gradient view: the
	// synchronized gradient is reconstructed directly into the view's
	// segments. v must be the view passed to the immediately preceding
	// EncodeView.
	ExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator) error
	// ExchangeKind reports which collective dominates the exchange, for
	// the α–β network model.
	ExchangeKind() netsim.ExchangeKind
	// PayloadBytes returns the analytic per-worker payload in bytes for an
	// n-parameter model, used by the traffic tables and netsim.
	PayloadBytes(n int) int64
	// Reset clears error-feedback state (between convergence runs).
	Reset()
}

// Sync is Encode followed by Exchange over one flat gradient: the one-call
// form the theory checks (core) and the benchmarks use. The training loop
// does not call it; it drives per-bucket views through Bucketed.
func Sync(a Algorithm, g []float32, c *comm.Communicator) (Payload, error) {
	p := a.Encode(g)
	return p, a.Exchange(p, g, c)
}

// Options bundles the tunables shared by the algorithm constructors.
type Options struct {
	// N is the model's parameter count (the gradient length).
	N int
	// Density is the selected fraction k/n for sparsifiers. The paper's
	// appendix uses 0.001 ("Threshold for TopK and GaussianK is 0.001d").
	Density float64
	// QuantLevels is QSGD's s parameter; the paper's appendix uses 4.
	QuantLevels int
	// Seed seeds per-worker stochastic compression (QSGD).
	Seed uint64
}

// DefaultOptions mirrors the paper's experimental appendix for an
// n-parameter model: density 0.001, QSGD quantization level 4.
func DefaultOptions(n int) Options {
	return Options{N: n, Density: 0.001, QuantLevels: 4, Seed: 1}
}

// K returns the sparsifier selection count implied by the options, ≥ 1.
func (o Options) K() int {
	k := int(o.Density * float64(o.N))
	if k < 1 {
		k = 1
	}
	if k > o.N {
		k = o.N
	}
	return k
}

func (o Options) validate() {
	if o.N <= 0 {
		panic(fmt.Sprintf("compress: invalid N=%d", o.N))
	}
}

// ---- Dense SGD ----

// Dense is the default distributed SGD synchronization: every worker
// allreduce-averages the full 32n-bit gradient. Its local computation is
// O(1) — there is nothing to compress (Table 2, row 1). The allreduce is
// comm.AlgoAuto: recursive doubling below its length cutover, ring above.
type Dense struct {
	stage []float32 // contiguous staging for strided views (allreduce needs one buffer)
}

// NewDense builds the dense baseline.
func NewDense(o Options) *Dense {
	o.validate()
	return &Dense{}
}

// Name implements Algorithm.
func (d *Dense) Name() string { return "dense" }

// Encode is the identity: the payload is the gradient itself (no copy).
func (d *Dense) Encode(g []float32) Payload {
	return Payload{Data: g, Bits: int64(32 * len(g))}
}

// EncodeView implements Algorithm. A contiguous view keeps the zero-copy
// identity payload; a strided one is staged into instance scratch — dense
// has no compressed form, and the allreduce needs one contiguous buffer.
func (d *Dense) EncodeView(v *tensor.VecView) Payload {
	if g := v.Contiguous(); g != nil || v.Len() == 0 {
		return d.Encode(g)
	}
	st := growF32(&d.stage, v.Len())
	v.CopyTo(st)
	return Payload{Data: st, Bits: int64(32 * v.Len())}
}

// Exchange allreduce-averages the gradient in place.
func (d *Dense) Exchange(p Payload, g []float32, c *comm.Communicator) error {
	return c.AllreduceMean(g, comm.AlgoAuto)
}

// ExchangeView implements Algorithm: in place for a contiguous view;
// through the staged payload (which EncodeView filled) otherwise, copied
// back into the view's segments after the collective.
func (d *Dense) ExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator) error {
	if g := v.Contiguous(); g != nil || v.Len() == 0 {
		return d.Exchange(p, g, c)
	}
	if err := c.AllreduceMean(p.Data, comm.AlgoAuto); err != nil {
		return err
	}
	v.CopyFrom(p.Data)
	return nil
}

// ExchangeKind implements Algorithm.
func (d *Dense) ExchangeKind() netsim.ExchangeKind { return netsim.ExchangeAllreduce }

// PayloadBytes implements Algorithm: 32n bits.
func (d *Dense) PayloadBytes(n int) int64 { return int64(4 * n) }

// Reset implements Algorithm (no state).
func (d *Dense) Reset() {}
