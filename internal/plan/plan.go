package plan

import (
	"fmt"
	"strings"

	"a2sgd/internal/compress"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
)

// Schedule is a complete synchronization plan for one training
// configuration: where the gradient is cut into buckets, which algorithm
// spec synchronizes each bucket, and which topology the collectives run on.
// It is the runtime's only input for all of that: cluster.Train accepts
// nothing else, and every spec, policy and bucket/topology/overlap knob above
// it (a2sgd.TrainConfig, the CLIs, the bench sweeps) is lowered to one first.
type Schedule struct {
	// Workers is the data-parallel width the schedule was planned for; 0
	// (lowered schedules) binds it to none, so it runs at any world size.
	Workers int
	// Bounds are the cumulative bucket offsets over the flattened parameter
	// vector (len = buckets+1, Bounds[0] = 0), aligned to segment
	// boundaries — nn.PlanFromBounds reconstructs the full plan.
	Bounds []int
	// Specs holds each bucket's algorithm spec, parallel to the buckets.
	Specs []*compress.Spec
	// Topology is the two-level hierarchy width in ranks per node the
	// collectives should run with (0 or 1 = flat), chosen as the cheapest
	// width when the pricer is a fabric pair.
	Topology int
	// Overlap pipelines each bucket's collective behind the next bucket's
	// gather+encode (the price below assumes whatever this says).
	Overlap bool
	// Policy is the canonical policy string that produced Specs — the auto
	// policy's spec for planned schedules, the source policy for lowered
	// ones.
	Policy string
	// PricedOn labels the network model the schedule was priced on (empty
	// for lowered schedules, which are never priced).
	PricedOn string
	// PipelinedSyncSec and SerialSyncSec are the modelled per-step
	// encode+synchronization makespans of this schedule on that model.
	PipelinedSyncSec, SerialSyncSec float64
}

// NumBuckets returns the bucket count.
func (s *Schedule) NumBuckets() int { return len(s.Bounds) - 1 }

// Composition summarizes the spec assignment: distinct spec strings in
// first-use order, each with its bucket count ("a2sgd×6 | dense×2").
func (s *Schedule) Composition() string {
	counts := map[string]int{}
	var order []string
	for _, sp := range s.Specs {
		name := sp.String()
		if counts[name] == 0 {
			order = append(order, name)
		}
		counts[name]++
	}
	parts := make([]string, len(order))
	for i, name := range order {
		parts[i] = fmt.Sprintf("%s×%d", name, counts[name])
	}
	return strings.Join(parts, " | ")
}

// Validate checks the schedule's internal consistency.
func (s *Schedule) Validate() error {
	if s == nil {
		return fmt.Errorf("plan: nil schedule")
	}
	if len(s.Bounds) < 2 || s.Bounds[0] != 0 {
		return fmt.Errorf("plan: schedule bounds %v must start at 0 and delimit at least one bucket", s.Bounds)
	}
	for i := 1; i < len(s.Bounds); i++ {
		if s.Bounds[i] <= s.Bounds[i-1] {
			return fmt.Errorf("plan: schedule bounds %v must be strictly increasing", s.Bounds)
		}
	}
	if len(s.Specs) != s.NumBuckets() {
		return fmt.Errorf("plan: %d specs for %d buckets", len(s.Specs), s.NumBuckets())
	}
	for _, sp := range s.Specs {
		if err := compress.CheckSpec(sp); err != nil {
			return err
		}
	}
	return nil
}

// Options configures Build.
type Options struct {
	// Workers is the data-parallel width (required, >= 1).
	Workers int
	// Pricer is the network model the plan is priced on (required). A
	// netsim.TwoTier additionally opens the ranks-per-node search: the
	// planner evaluates every candidate width of the same fabric pair and
	// the flat inter-node fabric, and Schedule.Topology records the winner.
	Pricer netsim.Pricer
	// Candidates are the algorithm specs the per-bucket choice draws from,
	// in priority order (ties keep the earlier). Empty defaults to the
	// paper's evaluated five.
	Candidates []string
	// BucketBudgets are the uniform bucket byte budgets to evaluate (0 =
	// whole model). Empty defaults to DefaultBudgets(Pricer, Workers).
	BucketBudgets []int
	// RanksPerNode are the candidate hierarchy widths when Pricer is a
	// TwoTier (1 = flat). Empty defaults to 1 and every power of two up to
	// Workers. Ignored for flat fabrics.
	RanksPerNode []int
	// Serial plans for the non-overlapped loop: schedules are ranked by
	// their serial price and Schedule.Overlap is false. The default plans
	// for the overlap pipeline.
	Serial bool
}

// DefaultBudgets returns the uniform bucket-budget ladder Build evaluates: a
// fixed power-of-two ladder from 1 KiB to 256 KiB plus the whole-model
// single bucket, extended with the pricer's amortized bucket sizes (the
// payload at which the priced tier's latency share drops to 50%, 10% and
// 2%). The ladder is deterministic: fixed entries first, amortized sizes
// appended in decreasing-latency-share order, duplicates dropped.
func DefaultBudgets(pr netsim.Pricer, workers int) []int {
	budgets := []int{0, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	sizer, ok := pr.(netsim.BucketSizer)
	if !ok {
		return budgets
	}
	seen := map[int]bool{}
	for _, b := range budgets {
		seen[b] = true
	}
	for _, frac := range []float64{0.5, 0.1, 0.02} {
		b := sizer.AmortizedBucketBytes(workers, frac)
		if b > 16<<20 { // beyond any reduced-scale model: the whole-model entry covers it
			continue
		}
		if bi := int(b); !seen[bi] {
			seen[bi] = true
			budgets = append(budgets, bi)
		}
	}
	return budgets
}

// candidate is one parsed spec with its priced-cost accessors.
type candidate struct {
	spec *compress.Spec
}

// bucketCost is one (bucket, candidate) cell of the pricing table.
type bucketCost struct {
	encSec float64
	bytes  int64
	kind   netsim.ExchangeKind
}

// costTable prices every candidate on every bucket of a plan. Cost models
// are affine in the bucket length, so cells for repeated lengths are cached.
func costTable(cands []candidate, plan nn.BucketPlan) ([][]bucketCost, error) {
	type key struct {
		cand int
		n    int
	}
	cache := map[key]bucketCost{}
	table := make([][]bucketCost, len(plan.Buckets))
	for b, bk := range plan.Buckets {
		row := make([]bucketCost, len(cands))
		for c, cand := range cands {
			k := key{c, bk.Len}
			cell, ok := cache[k]
			if !ok {
				cm, err := compress.SpecCost(cand.spec, compress.DefaultOptions(bk.Len))
				if err != nil {
					return nil, err
				}
				cell = bucketCost{encSec: cm.EncSec(bk.Len), bytes: cm.PayloadBytes(bk.Len), kind: cm.Kind}
				cache[k] = cell
			}
			row[c] = cell
		}
		table[b] = row
	}
	return table, nil
}

// assignment is one complete per-bucket spec choice with its price inputs.
type assignment struct {
	choice []int // candidate index per bucket
	kinds  []netsim.ExchangeKind
	encSec []float64
	bytes  []int64
}

// newAssignment materializes the price-law inputs for a choice vector.
func newAssignment(choice []int, table [][]bucketCost) assignment {
	a := assignment{
		choice: choice,
		kinds:  make([]netsim.ExchangeKind, len(choice)),
		encSec: make([]float64, len(choice)),
		bytes:  make([]int64, len(choice)),
	}
	for b, c := range choice {
		cell := table[b][c]
		a.kinds[b], a.encSec[b], a.bytes[b] = cell.kind, cell.encSec, cell.bytes
	}
	return a
}

// assignments enumerates the spec assignments Build prices for one plan:
// every uniform assignment (all buckets on candidate c) plus the per-bucket
// greedy one (each bucket takes the candidate minimizing its own standalone
// encode + collective cost). Including the uniforms guarantees the planned
// schedule is never modelled slower than the best uniform configuration.
func assignments(table [][]bucketCost, pr netsim.Pricer, workers int) []assignment {
	nb, nc := len(table), len(table[0])
	out := make([]assignment, 0, nc+1)
	for c := 0; c < nc; c++ {
		choice := make([]int, nb)
		for b := range choice {
			choice[b] = c
		}
		out = append(out, newAssignment(choice, table))
	}
	greedy := make([]int, nb)
	for b := range table {
		best, bestCost := 0, 0.0
		for c, cell := range table[b] {
			cost := cell.encSec + pr.SyncTime(cell.kind, cell.bytes, workers)
			if c == 0 || cost < bestCost {
				best, bestCost = c, cost
			}
		}
		greedy[b] = best
	}
	out = append(out, newAssignment(greedy, table))
	return out
}

// scored is one fully-priced (topology, partition, assignment) candidate.
type scored struct {
	plan     nn.BucketPlan
	assign   assignment
	topology int
	pricer   netsim.Pricer
	price    netsim.SchedulePrice
}

// rank returns the price the planner minimizes.
func (s scored) rank(serial bool) float64 {
	if serial {
		return s.price.Serial
	}
	return s.price.Pipelined
}

// Build plans the cheapest modelled schedule for a model's segments: it
// sweeps candidate topologies (for two-tier pricers), uniform bucket-budget
// ladders sized against the priced tier, a tail-refinement pass that
// re-splits the final (pipeline-exposed) bucket, and the per-bucket spec
// assignments of the auto policy, pricing every combination with
// netsim.PriceSchedule and keeping the first-seen minimum. The search is a
// pure function of its inputs — planning twice yields identical schedules.
func Build(segs []nn.Segment, o Options) (*Schedule, error) {
	if o.Workers < 1 {
		return nil, fmt.Errorf("plan: Workers must be >= 1 (got %d)", o.Workers)
	}
	if o.Pricer == nil {
		return nil, fmt.Errorf("plan: a netsim.Pricer is required")
	}
	candSrcs := o.Candidates
	if len(candSrcs) == 0 {
		candSrcs = compress.Evaluated()
	}
	cands := make([]candidate, 0, len(candSrcs))
	for _, src := range candSrcs {
		sp, err := compress.Parse(src)
		if err != nil {
			return nil, err
		}
		if err := compress.CheckSpec(sp); err != nil {
			return nil, err
		}
		if _, err := compress.Build(sp, compress.DefaultOptions(4)); err != nil {
			return nil, err
		}
		cands = append(cands, candidate{spec: sp})
	}

	var best *scored
	consider := func(s scored) {
		if best == nil || s.rank(o.Serial) < best.rank(o.Serial) {
			best = &s
		}
	}
	evaluate := func(p nn.BucketPlan, pr netsim.Pricer, topology int) error {
		if len(p.Buckets) == 0 {
			return fmt.Errorf("plan: model has no parameters")
		}
		table, err := costTable(cands, p)
		if err != nil {
			return err
		}
		for _, a := range assignments(table, pr, o.Workers) {
			price := netsim.PriceSchedule(pr, a.kinds, a.encSec, a.bytes, o.Workers)
			consider(scored{plan: p, assign: a, topology: topology, pricer: pr, price: price})
		}
		return nil
	}

	for _, tp := range topologyCandidates(o) {
		budgets := o.BucketBudgets
		if len(budgets) == 0 {
			budgets = DefaultBudgets(tp.pricer, o.Workers)
		}
		for _, bb := range budgets {
			if err := evaluate(nn.PlanBuckets(segs, bb), tp.pricer, tp.topology); err != nil {
				return nil, err
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: nothing to evaluate")
	}

	// Tail refinement: the last bucket's collective is the one the pipeline
	// can never hide, so re-splitting it into smaller buckets (which also
	// lets the auto policy finish on a dense, low-latency tail) can undercut
	// every uniform budget. Evaluate halving ladders of the winner's final
	// bucket and keep any strict improvement.
	base := *best
	lastLen := base.plan.Buckets[len(base.plan.Buckets)-1].Len
	for _, div := range []int{2, 4, 8} {
		tailBudget := 4 * lastLen / div
		if tailBudget < 256 {
			break
		}
		refined, ok := splitTail(segs, base.plan, tailBudget)
		if !ok {
			continue
		}
		if err := evaluate(refined, base.pricer, base.topology); err != nil {
			return nil, err
		}
	}

	specs := make([]*compress.Spec, len(best.assign.choice))
	for b, c := range best.assign.choice {
		specs[b] = cands[c].spec
	}
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.spec.String()
	}
	return &Schedule{
		Workers:          o.Workers,
		Bounds:           best.plan.Bounds(),
		Specs:            specs,
		Topology:         best.topology,
		Overlap:          !o.Serial,
		Policy:           "auto(" + strings.Join(names, ", ") + ")",
		PricedOn:         best.pricer.Label(),
		PipelinedSyncSec: best.price.Pipelined,
		SerialSyncSec:    best.price.Serial,
	}, nil
}

// topologyCandidate pairs a pricer with the Topology value it implies.
type topologyCandidate struct {
	pricer   netsim.Pricer
	topology int
}

// topologyCandidates enumerates the pricer/topology pairs to sweep: just the
// given pricer for flat fabrics; for a TwoTier fabric pair, the flat
// inter-node fabric (width 1) and the pair at every candidate width. The
// default width ladder is capped by the pair's RanksPerNode — that is the
// hardware node width; packing more ranks onto a node than it has slots is
// not a plannable choice (pass RanksPerNode explicitly to override).
func topologyCandidates(o Options) []topologyCandidate {
	tt, ok := o.Pricer.(netsim.TwoTier)
	if !ok {
		return []topologyCandidate{{pricer: o.Pricer}}
	}
	widths := o.RanksPerNode
	if len(widths) == 0 {
		max := tt.RanksPerNode
		if max < 1 || max > o.Workers {
			max = o.Workers
		}
		for w := 1; w <= max; w *= 2 {
			widths = append(widths, w)
		}
	}
	var out []topologyCandidate
	seen := map[int]bool{}
	for _, w := range widths {
		if w < 1 {
			w = 1
		}
		if w > o.Workers {
			w = o.Workers
		}
		if seen[w] {
			continue
		}
		seen[w] = true
		if w == 1 {
			out = append(out, topologyCandidate{pricer: tt.Inter})
			continue
		}
		two := tt
		two.RanksPerNode = w
		out = append(out, topologyCandidate{pricer: two, topology: w})
	}
	return out
}

// splitTail re-plans the final bucket of a plan against a smaller byte
// budget, splicing the refined tail onto the unchanged prefix. Returns
// ok=false when the tail cannot be split further (single segment, or the
// budget does not change the partition).
func splitTail(segs []nn.Segment, p nn.BucketPlan, tailBudget int) (nn.BucketPlan, bool) {
	last := p.Buckets[len(p.Buckets)-1]
	if len(last.Segments) < 2 {
		return nn.BucketPlan{}, false
	}
	// Rebase the tail's segments to offset 0 so PlanBuckets accepts them.
	tail := make([]nn.Segment, len(last.Segments))
	for i, s := range last.Segments {
		s.Off -= last.Off
		tail[i] = s
	}
	sub := nn.PlanBuckets(tail, tailBudget)
	if len(sub.Buckets) < 2 {
		return nn.BucketPlan{}, false
	}
	bounds := p.Bounds()
	newBounds := append([]int{}, bounds[:len(bounds)-1]...)
	for _, bk := range sub.Buckets[1:] {
		newBounds = append(newBounds, last.Off+bk.Off)
	}
	newBounds = append(newBounds, p.N)
	refined, err := nn.PlanFromBounds(segs, newBounds)
	if err != nil {
		return nn.BucketPlan{}, false
	}
	return refined, true
}

// Lower converts a hand-picked configuration into the schedule it denotes:
// PlanBuckets boundaries at the fixed budget, the policy's spec for every
// bucket, the given topology and overlap flags, and no pricing. It is how
// every knob above the runtime reaches it (cluster.Lower wraps it for a
// family name and a policy string); workers 0 leaves the schedule valid at
// any world size.
func Lower(segs []nn.Segment, pol compress.Policy, bucketBytes, topology int, overlap bool, workers int) *Schedule {
	p := nn.PlanBuckets(segs, bucketBytes)
	specs := make([]*compress.Spec, len(p.Buckets))
	for b, bk := range p.Buckets {
		specs[b] = pol.SpecFor(compress.BucketInfo{Index: b, Params: bk.Len, Bytes: int64(4 * bk.Len)})
	}
	return &Schedule{
		Workers:  workers,
		Bounds:   p.Bounds(),
		Specs:    specs,
		Topology: topology,
		Overlap:  overlap,
		Policy:   pol.Name(),
	}
}

// PriceUniform prices the hand-tuned uniform configuration — one spec, one
// bucket budget — on o.Pricer without planning anything, so sweeps can put
// auto-planned schedules side by side with the grid they beat. Only Workers,
// Pricer and Serial are read from o.
func PriceUniform(segs []nn.Segment, spec string, bucketBytes int, o Options) (netsim.SchedulePrice, error) {
	if o.Workers < 1 || o.Pricer == nil {
		return netsim.SchedulePrice{}, fmt.Errorf("plan: PriceUniform needs Workers and a Pricer")
	}
	sp, err := compress.Parse(spec)
	if err != nil {
		return netsim.SchedulePrice{}, err
	}
	p := nn.PlanBuckets(segs, bucketBytes)
	table, err := costTable([]candidate{{spec: sp}}, p)
	if err != nil {
		return netsim.SchedulePrice{}, err
	}
	a := newAssignment(make([]int, len(p.Buckets)), table)
	return netsim.PriceSchedule(o.Pricer, a.kinds, a.encSec, a.bytes, o.Workers), nil
}

// Reprice prices an existing schedule on a (possibly different) pricer
// without re-planning, so a stale schedule can be compared against what
// Build would choose on a measured fabric: Build minimizes over its search
// space, so on the same pricer a fresh schedule never prices worse than a
// stale one — Reprice quantifies by how much.
func Reprice(s *Schedule, segs []nn.Segment, pr netsim.Pricer) (netsim.SchedulePrice, error) {
	if pr == nil {
		return netsim.SchedulePrice{}, fmt.Errorf("plan: Reprice needs a pricer")
	}
	if err := s.Validate(); err != nil {
		return netsim.SchedulePrice{}, err
	}
	if s.Workers < 1 {
		return netsim.SchedulePrice{}, fmt.Errorf("plan: schedule has no worker count to price at")
	}
	p, err := nn.PlanFromBounds(segs, s.Bounds)
	if err != nil {
		return netsim.SchedulePrice{}, err
	}
	nb := s.NumBuckets()
	kinds := make([]netsim.ExchangeKind, nb)
	encSec := make([]float64, nb)
	bytes := make([]int64, nb)
	for b, bk := range p.Buckets {
		cm, err := compress.SpecCost(s.Specs[b], compress.DefaultOptions(bk.Len))
		if err != nil {
			return netsim.SchedulePrice{}, err
		}
		kinds[b], encSec[b], bytes[b] = cm.Kind, cm.EncSec(bk.Len), cm.PayloadBytes(bk.Len)
	}
	return netsim.PriceSchedule(pr, kinds, encSec, bytes, s.Workers), nil
}
