package netsim

import (
	"strings"
	"testing"
)

func TestTwoTierDegeneratesToFlatInter(t *testing.T) {
	two := TwoTierIB100(1) // every rank its own node
	flat := IB100()
	for _, kind := range []ExchangeKind{ExchangeAllreduce, ExchangeAllgather} {
		for _, p := range []int{2, 4, 7, 16} {
			got := two.SyncTime(kind, 1_000_000, p)
			want := flat.SyncTime(kind, 1_000_000, p)
			if got != want {
				t.Errorf("kind=%d p=%d: two-tier(rpn=1) %g != flat %g", kind, p, got, want)
			}
		}
	}
}

func TestTwoTierAllreduceCheaperThanFlatOnSlowInter(t *testing.T) {
	// With a fast intra tier, moving most hops off the slow network must
	// reduce the modelled allreduce cost for bandwidth-bound payloads.
	flat := TCP10G()
	two := TwoTierTCP10G(4)
	const bytes = 4_000_000
	for _, p := range []int{8, 16, 32} {
		if h, f := two.HierAllreduce(bytes, p), flat.Allreduce(bytes, p); h >= f {
			t.Errorf("p=%d: hierarchical allreduce %g not cheaper than flat %g", p, h, f)
		}
		if h, f := two.HierAllgather(bytes/100, p), flat.Allgather(bytes/100, p); h >= f {
			t.Errorf("p=%d: hierarchical allgather %g not cheaper than flat %g", p, h, f)
		}
	}
}

func TestTwoTierSyncTimeMonotoneInRanksPerNode(t *testing.T) {
	// Widening nodes moves traffic onto the fast tier: modelled allreduce
	// sync time must not increase with ranks-per-node.
	const p, bytes = 16, 10_000_000
	prev := TwoTierIB100(1).SyncTime(ExchangeAllreduce, bytes, p)
	for _, rpn := range []int{2, 4, 8, 16} {
		cur := TwoTierIB100(rpn).SyncTime(ExchangeAllreduce, bytes, p)
		if cur > prev {
			t.Errorf("rpn=%d: sync %g > rpn/2 sync %g (not monotone)", rpn, cur, prev)
		}
		prev = cur
	}
}

func TestTwoTierPipelinedAtMostSerial(t *testing.T) {
	two := TwoTierIB100(4)
	enc := []float64{1e-5, 2e-5, 1e-5}
	bytes := []int64{100_000, 50_000, 200_000}
	price := PriceSchedule(two, []ExchangeKind{ExchangeAllreduce}, enc, bytes, 8)
	pip, ser := price.Pipelined, price.Serial
	if pip > ser {
		t.Errorf("pipelined %g > serial %g", pip, ser)
	}
	if pip <= 0 || ser <= 0 {
		t.Errorf("non-positive prices: pip=%g ser=%g", pip, ser)
	}
}

func TestTwoTierShapeClamps(t *testing.T) {
	two := TwoTierIB100(32)
	m, nodes := two.shape(8)
	if m != 8 || nodes != 1 {
		t.Errorf("shape(8) with rpn=32: m=%d nodes=%d, want 8, 1", m, nodes)
	}
	if got := two.HierAllreduce(1000, 1); got != 0 {
		t.Errorf("single rank allreduce priced %g, want 0", got)
	}
}

// TestParseFabric: every listed name parses to its flat tier, the
// "nvlink+" names to the pair the named constructors build, and an unknown
// name's error lists the table.
func TestParseFabric(t *testing.T) {
	want := map[string]Pricer{
		"ib100": IB100(), "tcp10g": TCP10G(),
		"nvlink+ib100": TwoTierIB100(4), "nvlink+tcp10g": TwoTierTCP10G(4),
	}
	names := FabricNames()
	if len(names) != len(want) {
		t.Fatalf("FabricNames() = %q", names)
	}
	for _, name := range names {
		flat, twoTier, err := ParseFabric(name)
		if err != nil {
			t.Fatalf("ParseFabric(%q): %v", name, err)
		}
		var got Pricer = flat
		if twoTier {
			got = OnNodes(flat, 4)
		}
		if got != want[name] {
			t.Errorf("ParseFabric(%q) = %+v, want %+v", name, got, want[name])
		}
	}
	for _, name := range []string{"nope", "nvlink+", "nvlink+nvlink+ib100", "IB100"} {
		if _, _, err := ParseFabric(name); err == nil || !strings.Contains(err.Error(), "nvlink+tcp10g") {
			t.Errorf("ParseFabric(%q) = %v; want an error listing the names", name, err)
		}
	}
}
