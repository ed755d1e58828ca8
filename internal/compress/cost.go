package compress

import (
	"fmt"

	"a2sgd/internal/netsim"
)

// CostModel estimates one algorithm spec's planning-relevant costs without
// building it: the local compression time and wire payload as affine
// functions of the bucket element count, plus the dominant collective. The
// registry carries a CostModel alongside every Builder (Builder.Cost) so the
// planner (a2sgd/internal/plan) can price a candidate spec on any bucket of
// any fabric in O(1).
//
// The encode estimates are CPU orders of magnitude calibrated against the
// Figure-2 measurements; only their relative weight against the α–β network
// price matters to planning decisions, and the payload accounting matches
// each Algorithm's PayloadBytes exactly so modelled prices agree with the
// Result.ModeledIterSec* helpers.
type CostModel struct {
	// EncSecPerElem is the estimated local compression time per gradient
	// element, in seconds.
	EncSecPerElem float64
	// BytesPerElem is the analytic per-worker payload per element.
	BytesPerElem float64
	// FixedBytes is the length-independent payload part (A2SGD's O(1) pair
	// of scalar means, a quantizer's norm word).
	FixedBytes int64
	// Kind is the collective that dominates the exchange.
	Kind netsim.ExchangeKind
}

// PayloadBytes evaluates the payload model for an n-element bucket.
func (m CostModel) PayloadBytes(n int) int64 {
	return int64(m.BytesPerElem*float64(n)) + m.FixedBytes
}

// EncSec evaluates the encode-time model for an n-element bucket.
func (m CostModel) EncSec(n int) float64 {
	return m.EncSecPerElem * float64(n)
}

// defaultEncSecPerElem is the fallback encode estimate for algorithms
// registered without a Cost hook — one streaming pass over the gradient.
const defaultEncSecPerElem = 3e-9

// SpecCost resolves the cost model of a validated spec tree. Registered Cost
// hooks are evaluated with the spec's typed parameters (Options supplies the
// defaults, exactly as in Build); an algorithm registered without a Cost
// hook is built once at o.N and its PayloadBytes/ExchangeKind are sampled to
// derive the affine payload model, with defaultEncSecPerElem standing in for
// the encode time — so third-party registrations are plannable out of the
// box, just less precisely.
func SpecCost(s *Spec, o Options) (CostModel, error) {
	if o.N <= 0 {
		return CostModel{}, fmt.Errorf("compress: SpecCost(%s): Options.N must be positive", s)
	}
	b, ok := LookupBuilder(s.Name)
	if !ok {
		return CostModel{}, unknownError(s.Name)
	}
	innerSpecs, values, err := checkArgs(s, b)
	if err != nil {
		return CostModel{}, err
	}
	inner := make([]CostModel, 0, len(innerSpecs))
	for _, sp := range innerSpecs {
		cm, err := SpecCost(sp, o)
		if err != nil {
			return CostModel{}, err
		}
		inner = append(inner, cm)
	}
	if b.Cost != nil {
		return b.Cost(o, BuildArgs{values: values}, inner), nil
	}
	return sampledCost(s, o)
}

// sampledCost derives a cost model by building the algorithm and sampling
// its analytic payload at two sizes (payloads are affine in n for every
// implemented algorithm).
func sampledCost(s *Spec, o Options) (CostModel, error) {
	a, err := Build(s, o)
	if err != nil {
		return CostModel{}, err
	}
	n1, n2 := o.N, 2*o.N
	b1, b2 := a.PayloadBytes(n1), a.PayloadBytes(n2)
	perElem := float64(b2-b1) / float64(n2-n1)
	return CostModel{
		EncSecPerElem: defaultEncSecPerElem,
		BytesPerElem:  perElem,
		FixedBytes:    b1 - int64(perElem*float64(n1)),
		Kind:          a.ExchangeKind(),
	}, nil
}

// BucketSeed derives the canonical per-bucket compression seed the runtime
// uses when it constructs algorithms from specs: bucket 0 keeps the
// historical per-rank seed (so single-bucket runs reproduce pre-bucketing
// results exactly) and later buckets decorrelate their stochastic streams.
// cluster.Train is its one caller in the runtime, so equal schedules and
// seeds give bitwise-equal runs whoever wrote the schedule down.
func BucketSeed(seed uint64, rank, bucket int) uint64 {
	return seed*31 + uint64(rank) + 1 + uint64(bucket)*1_000_003
}
