package netsim

import "testing"

// TestPriceScheduleMatchesLaws pins PriceSchedule to the two recurrences
// written out by hand for a mixed-kind schedule: the allreduce bucket and the
// allgather bucket are each priced by their own collective.
func TestPriceScheduleMatchesLaws(t *testing.T) {
	f := IB100()
	kinds := []ExchangeKind{ExchangeAllreduce, ExchangeAllgather}
	enc := []float64{1e-5, 2e-5}
	bytes := []int64{4096, 128}
	p := PriceSchedule(f, kinds, enc, bytes, 8)
	s0, s1 := f.Allreduce(bytes[0], 8), f.Allgather(bytes[1], 8)
	syncDone := enc[0] + s0
	if e := enc[0] + enc[1]; syncDone < e {
		syncDone = e
	}
	if want := syncDone + s1; p.Pipelined != want {
		t.Errorf("pipelined %v, want %v", p.Pipelined, want)
	}
	if want := enc[0] + enc[1] + s0 + s1; p.Serial != want {
		t.Errorf("serial %v, want %v", p.Serial, want)
	}
	if p.Pipelined > p.Serial {
		t.Errorf("pipelined %v exceeds serial %v", p.Pipelined, p.Serial)
	}
}

func TestAmortizedBucketBytes(t *testing.T) {
	f := IB100()
	// Tighter latency fractions require bigger buckets.
	b50 := f.AmortizedBucketBytes(8, 0.5)
	b10 := f.AmortizedBucketBytes(8, 0.1)
	if b50 <= 0 || b10 <= b50 {
		t.Fatalf("amortized sizes not increasing: 50%%=%d 10%%=%d", b50, b10)
	}
	// At the returned size the latency share of one ring step is ~ the
	// requested fraction: alpha / (alpha + B*beta/p) ≈ frac.
	share := f.Alpha / (f.Alpha + float64(b10)*f.Beta/8)
	if share < 0.09 || share > 0.11 {
		t.Errorf("latency share %.3f at the 10%% size", share)
	}
	// Degenerate inputs stay sane.
	if b := (Fabric{Name: "free", Alpha: 1e-6}).AmortizedBucketBytes(8, 0.1); b != 1<<30 {
		t.Errorf("beta=0 fabric returned %d", b)
	}
	// The two-tier bound amortizes the inter tier at the node count: fewer
	// leaders than ranks, so the bound is below the flat bound at p ranks.
	tt := TwoTierTCP10G(4)
	if got, flat := tt.AmortizedBucketBytes(16, 0.1), tt.Inter.AmortizedBucketBytes(16, 0.1); got >= flat {
		t.Errorf("two-tier bound %d not below flat %d", got, flat)
	}
}
