package plan

import (
	"reflect"
	"testing"

	"a2sgd/internal/compress"
	_ "a2sgd/internal/core" // registers a2sgd for spec parsing
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
)

func familySegs(t *testing.T, family string) []nn.Segment {
	t.Helper()
	m, err := models.New(models.Config{Family: family, Seed: 1, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	return m.ParamSegments()
}

func TestBuildDeterministic(t *testing.T) {
	segs := familySegs(t, "vgg16")
	o := Options{Workers: 8, Pricer: netsim.TwoTierTCP10G(4)}
	a, err := Build(segs, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(segs, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("planning twice diverged:\n%+v\n%+v", a, b)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("planned schedule invalid: %v", err)
	}
	if a.Overlap != true || a.Workers != 8 || a.PricedOn == "" {
		t.Errorf("schedule metadata %+v", a)
	}
}

// TestAutoNotWorseThanUniform is the planner's core guarantee (ISSUE 4
// acceptance): on both the paper's IB100 and the two-tier TCP pair, for the
// vgg16- and lstm-style models, the planned schedule's modelled pipelined
// time is <= every hand-tuned uniform configuration (spec × bucket budget)
// over the planner's own grid and a conventional hand grid.
func TestAutoNotWorseThanUniform(t *testing.T) {
	handBudgets := []int{0, 2048, 8192, 32768, 131072}
	for _, family := range []string{"vgg16", "lstm"} {
		segs := familySegs(t, family)
		for _, pr := range []netsim.Pricer{netsim.IB100(), netsim.TwoTierTCP10G(4)} {
			sched, err := Build(segs, Options{Workers: 8, Pricer: pr})
			if err != nil {
				t.Fatal(err)
			}
			budgets := append(append([]int{}, handBudgets...), DefaultBudgets(pr, 8)...)
			for _, spec := range compress.Evaluated() {
				for _, bb := range budgets {
					price, err := PriceUniform(segs, spec, bb, Options{Workers: 8, Pricer: pr})
					if err != nil {
						t.Fatal(err)
					}
					if sched.PipelinedSyncSec > price.Pipelined+1e-15 {
						t.Errorf("%s on %s: auto %.3e slower than uniform %s@%dB %.3e",
							family, pr.Label(), sched.PipelinedSyncSec, spec, bb, price.Pipelined)
					}
				}
			}
		}
	}
}

func TestBuildTopologyChoice(t *testing.T) {
	segs := familySegs(t, "fnn3")
	// Flat fabric: no topology.
	flat, err := Build(segs, Options{Workers: 8, Pricer: netsim.IB100()})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Topology != 0 {
		t.Errorf("flat fabric chose topology %d", flat.Topology)
	}
	// A pair with a huge intra/inter gap and 8 workers on 4-slot nodes must
	// use the hierarchy: the flat alternative routes everything over TCP.
	two, err := Build(segs, Options{Workers: 8, Pricer: netsim.TwoTierTCP10G(4)})
	if err != nil {
		t.Fatal(err)
	}
	if two.Topology < 2 {
		t.Errorf("two-tier pair chose topology %d, want >= 2", two.Topology)
	}
	if two.Topology > 4 {
		t.Errorf("topology %d exceeds the pair's 4-slot nodes", two.Topology)
	}
	// Pinned width is respected.
	pinned, err := Build(segs, Options{Workers: 8, Pricer: netsim.TwoTierTCP10G(4), RanksPerNode: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Topology != 2 {
		t.Errorf("pinned width ignored: topology %d", pinned.Topology)
	}
}

func TestBuildPinnedBudgetAndCandidates(t *testing.T) {
	segs := familySegs(t, "fnn3")
	sched, err := Build(segs, Options{
		Workers: 4, Pricer: netsim.TCP10G(),
		Candidates:    []string{"a2sgd"},
		BucketBudgets: []int{8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range sched.Specs {
		if sp.String() != "a2sgd" {
			t.Errorf("pinned candidate ignored: %v", sched.Composition())
		}
	}
	// fnn3's 9178 params at 8 KiB = 2048-elem buckets: more than one bucket
	// (tail refinement may split further, never merge).
	if sched.NumBuckets() < 4 {
		t.Errorf("8KiB budget produced %d buckets", sched.NumBuckets())
	}
	if sched.Policy != "auto(a2sgd)" {
		t.Errorf("policy %q", sched.Policy)
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	segs := familySegs(t, "fnn3")
	if _, err := Build(segs, Options{Pricer: netsim.IB100()}); err == nil {
		t.Error("expected Workers error")
	}
	if _, err := Build(segs, Options{Workers: 4}); err == nil {
		t.Error("expected Pricer error")
	}
	if _, err := Build(segs, Options{Workers: 4, Pricer: netsim.IB100(), Candidates: []string{"nope"}}); err == nil {
		t.Error("expected unknown-candidate error")
	}
	if _, err := Build(nil, Options{Workers: 4, Pricer: netsim.IB100()}); err == nil {
		t.Error("expected empty-model error")
	}
}

func TestLowerMatchesLegacyPlanning(t *testing.T) {
	segs := familySegs(t, "fnn3")
	pol, err := compress.ParsePolicy("mixed(big=a2sgd, small=dense, threshold=4KiB)")
	if err != nil {
		t.Fatal(err)
	}
	sched := Lower(segs, pol, 8192, 2, true, 4)
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	want := nn.PlanBuckets(segs, 8192)
	if !reflect.DeepEqual(sched.Bounds, want.Bounds()) {
		t.Errorf("lowered bounds %v, want %v", sched.Bounds, want.Bounds())
	}
	if sched.Topology != 2 || !sched.Overlap || sched.Workers != 4 {
		t.Errorf("lowered metadata %+v", sched)
	}
	if sched.Policy != pol.Name() {
		t.Errorf("lowered policy %q", sched.Policy)
	}
	// Per-bucket specs match the policy's own choices.
	for b, bk := range want.Buckets {
		wantSpec := "dense"
		if 4*bk.Len >= 4096 {
			wantSpec = "a2sgd"
		}
		if got := sched.Specs[b].String(); got != wantSpec {
			t.Errorf("bucket %d (%dB): spec %s, want %s", b, 4*bk.Len, got, wantSpec)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	good := &Schedule{Bounds: []int{0, 4, 8}, Specs: []*compress.Spec{{Name: "dense"}, {Name: "dense"}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*Schedule{
		nil,
		{Bounds: []int{0}},
		{Bounds: []int{1, 4}, Specs: []*compress.Spec{{Name: "dense"}}},
		{Bounds: []int{0, 4, 4}, Specs: []*compress.Spec{{Name: "dense"}, {Name: "dense"}}},
		{Bounds: []int{0, 4}, Specs: nil},
		{Bounds: []int{0, 4}, Specs: []*compress.Spec{{Name: "nope"}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("schedule %+v validated", bad)
		}
	}
}

func TestCompositionSummarizes(t *testing.T) {
	s := &Schedule{
		Bounds: []int{0, 1, 2, 3},
		Specs:  []*compress.Spec{{Name: "a2sgd"}, {Name: "a2sgd"}, {Name: "dense"}},
	}
	if got := s.Composition(); got != "a2sgd×2 | dense×1" {
		t.Errorf("composition %q", got)
	}
}
