package compress

import (
	"fmt"
	"strings"

	"a2sgd/internal/netsim"
)

// CostModel estimates one algorithm spec's planning-relevant costs without
// building it: the local compression time and wire payload as affine
// functions of the bucket element count, plus the dominant collective. The
// registry carries a CostModel alongside every Builder (Builder.Cost) so the
// planner (a2sgd/internal/plan) and the auto policy can price a candidate
// spec on any bucket of any fabric in O(1).
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

// ---- auto policy ----

// AutoPolicy picks each bucket's spec from a candidate list by minimizing
// the modelled per-bucket cost — encode time plus the priced collective —
// on a fixed pricing context (pricer + worker count). It is a pure function
// of BucketInfo for a fixed context, so auto-policy runs stay deterministic.
//
// Parsed from a spec string ("auto", "auto(dense, a2sgd, topk(density=0.01))")
// the policy carries the default context (the paper's IB100 at
// defaultAutoWorkers); the planner re-derives the choice with the real
// pricer, worker count and the full pipeline recurrence, which is why
// a2sgd.Train routes auto policies through plan.Build instead of calling
// SpecFor directly.
type AutoPolicy struct {
	candidates []*Spec
	pricer     netsim.Pricer
	workers    int
}

// defaultAutoWorkers is the worker count the parsed (unplanned) auto policy
// prices buckets at.
const defaultAutoWorkers = 8

// NewAutoPolicy builds an auto policy over the candidate specs, validated
// and priced on the given context. A nil/empty candidate list defaults to
// the paper's evaluated five; a nil pricer defaults to IB100.
func NewAutoPolicy(candidates []*Spec, pricer netsim.Pricer, workers int) (*AutoPolicy, error) {
	if len(candidates) == 0 {
		for _, name := range Evaluated() {
			candidates = append(candidates, &Spec{Name: name})
		}
	}
	for _, s := range candidates {
		if err := validateSpec(s); err != nil {
			return nil, fmt.Errorf("compress: auto: %w", err)
		}
		if _, err := SpecCost(s, DefaultOptions(4)); err != nil {
			return nil, fmt.Errorf("compress: auto: %w", err)
		}
	}
	if pricer == nil {
		pricer = netsim.IB100()
	}
	if workers < 2 {
		workers = defaultAutoWorkers
	}
	return &AutoPolicy{candidates: candidates, pricer: pricer, workers: workers}, nil
}

// Candidates returns the candidate specs, in priority order (ties in the
// modelled cost keep the earlier candidate).
func (a *AutoPolicy) Candidates() []*Spec { return a.candidates }

// Name implements Policy with the canonical spec string.
func (a *AutoPolicy) Name() string {
	parts := make([]string, len(a.candidates))
	for i, s := range a.candidates {
		parts[i] = s.String()
	}
	return "auto(" + strings.Join(parts, ", ") + ")"
}

// SpecFor implements Policy: the candidate with the smallest modelled
// encode + collective cost for this bucket on the policy's context.
func (a *AutoPolicy) SpecFor(b BucketInfo) *Spec {
	if b.Params <= 0 {
		return a.candidates[0]
	}
	best, bestCost := a.candidates[0], 0.0
	for i, s := range a.candidates {
		cm, err := SpecCost(s, DefaultOptions(b.Params))
		if err != nil {
			continue // candidates were validated at construction
		}
		cost := cm.EncSec(b.Params) + a.pricer.SyncTime(cm.Kind, cm.PayloadBytes(b.Params), a.workers)
		if i == 0 || cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

// Specs implements Policy.
func (a *AutoPolicy) Specs() []*Spec { return a.candidates }

// autoUsage is the signature the CLI help and unknown-policy errors print.
const autoUsage = "auto(spec, spec, ...)"

func init() {
	RegisterPolicy("auto", autoUsage, func(args []Arg) (Policy, error) {
		var cands []*Spec
		for _, arg := range args {
			if arg.Key != "" {
				return nil, fmt.Errorf("compress: auto takes candidate specs only — want %s", autoUsage)
			}
			s, err := specArg("auto", arg)
			if err != nil {
				return nil, err
			}
			cands = append(cands, s)
		}
		return NewAutoPolicy(cands, nil, 0)
	})
}
