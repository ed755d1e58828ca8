package netsim

import "math"

// Fabric describes a network by its α–β parameters.
type Fabric struct {
	// Name identifies the profile in reports.
	Name string
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the per-byte transfer time in seconds (1 / bandwidth).
	Beta float64
}

// IB100 approximates the paper's testbed: 100 Gbps InfiniBand with ~1.5 µs
// MPI-level latency.
func IB100() Fabric {
	return Fabric{Name: "ib100", Alpha: 1.5e-6, Beta: 8.0e-11} // 12.5 GB/s
}

// TCP10G approximates a commodity 10 Gbps Ethernet cluster (for the
// "slower network" sensitivity analysis).
func TCP10G() Fabric {
	return Fabric{Name: "tcp10g", Alpha: 2.0e-5, Beta: 8.0e-10} // 1.25 GB/s
}

// Measured builds a fabric from runtime α–β estimates (e.g. a
// health.Monitor's link fits) so the planner can price schedules on the
// network as observed rather than as modelled. Negative inputs are clamped
// to zero; an empty name defaults to "measured".
func Measured(name string, alpha, beta float64) Fabric {
	if name == "" {
		name = "measured"
	}
	if alpha < 0 {
		alpha = 0
	}
	if beta < 0 {
		beta = 0
	}
	return Fabric{Name: name, Alpha: alpha, Beta: beta}
}

// PointToPoint returns the cost of one m-byte message.
func (f Fabric) PointToPoint(mBytes int64) float64 {
	return f.Alpha + float64(mBytes)*f.Beta
}

// RingAllreduce returns the cost of a ring allreduce of an n-byte vector
// across p workers: 2(p−1) steps each moving n/p bytes.
func (f Fabric) RingAllreduce(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	steps := float64(2 * (p - 1))
	seg := float64(nBytes) / float64(p)
	return steps * (f.Alpha + seg*f.Beta)
}

// RecDoublingAllreduce returns the cost of recursive-doubling allreduce:
// ⌈log2 p⌉ steps each moving the full n bytes (plus the non-power-of-two
// fold, one extra exchange).
func (f Fabric) RecDoublingAllreduce(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	t := rounds * (f.Alpha + float64(nBytes)*f.Beta)
	if p&(p-1) != 0 { // fold + unfold for non-power-of-two
		t += 2 * (f.Alpha + float64(nBytes)*f.Beta)
	}
	return t
}

// autoCutoverBytes mirrors comm's AlgoAuto policy: vectors under 4096
// float32 elements go recursive doubling, larger ones ring. The price law
// prices the collective the runtime actually runs — a min() of the two laws
// would assume an α-aware library choice the communicator does not make, and
// under high injected latency that mispredicts the dense epilogue (the
// runtime rings a large vector even when ⌈log2 p⌉ latency rounds would be
// cheaper).
const autoCutoverBytes = 4 * 4096

// Allreduce returns the cost of the allreduce comm.AlgoAuto would run: the
// length-based cutover between recursive doubling (small vectors) and ring
// (large vectors).
func (f Fabric) Allreduce(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	if nBytes < autoCutoverBytes {
		return f.RecDoublingAllreduce(nBytes, p)
	}
	return f.RingAllreduce(nBytes, p)
}

// Allgather returns the cost of a ring allgather where each worker
// contributes nBytes: p−1 steps each moving nBytes.
func (f Fabric) Allgather(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1) * (f.Alpha + float64(nBytes)*f.Beta)
}

// AllgatherV returns the cost of a variable-length allgather where each
// worker contributes nBytes on average: one fixed length-exchange round
// (every worker allgathers its 4-byte element count so peers can size their
// receives) followed by the p−1 data rounds. The length round is pure
// latency overhead — (p−1)·(α+4β) — which the earlier flat Allgather law
// omitted, undercounting every sparse exchange by p−1 α terms per bucket
// per step.
func (f Fabric) AllgatherV(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	return f.Allgather(4, p) + f.Allgather(nBytes, p)
}

// Broadcast returns the cost of a binomial-tree broadcast of nBytes.
func (f Fabric) Broadcast(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p))) * (f.Alpha + float64(nBytes)*f.Beta)
}

// ExchangeKind tells the model which collective a gradient-synchronization
// algorithm uses, matching §4.4's Allreduce-vs-Allgather discussion.
type ExchangeKind int

// Exchange kinds used by the gradient synchronization algorithms.
const (
	// ExchangeAllreduce: dense SGD, QSGD (dequantized reduce) and A2SGD.
	ExchangeAllreduce ExchangeKind = iota
	// ExchangeAllgather: fixed-length gather exchange (QSGD-Elias's coded
	// streams, priced at their expected length).
	ExchangeAllgather
	// ExchangeAllgatherV: variable-length gather exchange with a leading
	// length round — the sparse value/index algorithms (Top-K, Gaussian-K),
	// whose payload size is data dependent.
	ExchangeAllgatherV
)

// SyncTime returns the modelled synchronization time for one training step
// in which each worker contributes bytesPerWorker to the given exchange.
func (f Fabric) SyncTime(kind ExchangeKind, bytesPerWorker int64, p int) float64 {
	switch kind {
	case ExchangeAllgather:
		return f.Allgather(bytesPerWorker, p)
	case ExchangeAllgatherV:
		return f.AllgatherV(bytesPerWorker, p)
	default:
		return f.Allreduce(bytesPerWorker, p)
	}
}
