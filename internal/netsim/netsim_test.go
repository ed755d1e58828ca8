package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleWorkerIsFree(t *testing.T) {
	f := IB100()
	if f.RingAllreduce(1e6, 1) != 0 || f.RecDoublingAllreduce(1e6, 1) != 0 ||
		f.Allgather(1e6, 1) != 0 || f.Broadcast(1e6, 1) != 0 || f.Allreduce(1e6, 1) != 0 {
		t.Error("collectives with one worker must cost 0")
	}
}

func TestPointToPoint(t *testing.T) {
	f := Fabric{Alpha: 1e-6, Beta: 1e-9}
	got := f.PointToPoint(1000)
	want := 1e-6 + 1000e-9
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestRingAllreduceLaw(t *testing.T) {
	f := Fabric{Alpha: 2e-6, Beta: 1e-10}
	n, p := int64(4_000_000), 8
	got := f.RingAllreduce(n, p)
	want := 14 * (2e-6 + 500_000*1e-10) // 2(p-1)=14 steps, n/p = 500 kB
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestRecDoublingLaw(t *testing.T) {
	f := Fabric{Alpha: 1e-6, Beta: 1e-10}
	// Power of two: exactly log2(p) rounds.
	got := f.RecDoublingAllreduce(8, 8)
	want := 3 * (1e-6 + 8e-10)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("pow2: got %v want %v", got, want)
	}
	// Non power of two costs strictly more than the next-lower power.
	if f.RecDoublingAllreduce(8, 5) <= f.RecDoublingAllreduce(8, 4) {
		t.Error("non-pow2 should pay the fold penalty")
	}
}

func TestAllreduceChoosesBest(t *testing.T) {
	f := IB100()
	// Tiny message: recursive doubling (latency bound) must win.
	small := f.Allreduce(8, 16)
	if small != f.RecDoublingAllreduce(8, 16) {
		t.Errorf("small message should use recursive doubling: %v", small)
	}
	if small >= f.RingAllreduce(8, 16) {
		t.Error("auto should beat ring on small messages")
	}
	// Huge message: ring (bandwidth bound) must win.
	big := f.Allreduce(264_000_000, 16) // 66M params × 4B
	if big != f.RingAllreduce(264_000_000, 16) {
		t.Errorf("large message should use ring: %v", big)
	}
}

func TestA2SGDVersusDenseModelled(t *testing.T) {
	// The central claim: A2SGD's 8-byte exchange is orders of magnitude
	// cheaper than dense 66M-parameter allreduce on the modelled fabric.
	f := IB100()
	p := 16
	a2 := f.Allreduce(8, p)
	dense := f.Allreduce(66_034_000*4, p)
	if dense/a2 < 100 {
		t.Errorf("dense/a2sgd ratio = %v, expected >> 100", dense/a2)
	}
}

func TestAllgatherVsAllreduceSmallSparse(t *testing.T) {
	// §4.4: on a fast network, allgather of k elements beats ring allreduce
	// of the full vector and can even beat allreduce-style sparse exchange.
	f := IB100()
	p := 8
	k := int64(66_034 * 8) // 0.1% of 66M params, values+indices
	if f.Allgather(k, p) >= f.RingAllreduce(66_034_000*4, p) {
		t.Error("sparse allgather should beat dense allreduce")
	}
}

func TestSyncTimeDispatch(t *testing.T) {
	f := IB100()
	if f.SyncTime(ExchangeAllgather, 100, 4) != f.Allgather(100, 4) {
		t.Error("allgather dispatch")
	}
	if f.SyncTime(ExchangeAllreduce, 100, 4) != f.Allreduce(100, 4) {
		t.Error("allreduce dispatch")
	}
}

func TestMonotonicity(t *testing.T) {
	// Costs must be monotone in message size and (for fixed size) in p.
	f := IB100()
	check := func(g func(int64, int) float64, name string) {
		prev := 0.0
		for _, n := range []int64{1, 10, 1000, 1e6, 1e8} {
			c := g(n, 8)
			if c < prev {
				t.Errorf("%s not monotone in n at %d", name, n)
			}
			prev = c
		}
		prevP := 0.0
		for _, p := range []int{2, 4, 8, 16, 32} {
			c := g(1e6, p)
			if c < prevP && name != "recdbl" { // recdbl fold makes 5 > 8 possible; skip
				t.Errorf("%s not monotone in p at %d", name, p)
			}
			prevP = c
		}
	}
	check(f.RingAllreduce, "ring")
	check(f.Allgather, "allgather")
	check(f.Broadcast, "broadcast")
}

func TestFabricProfiles(t *testing.T) {
	ib, eth := IB100(), TCP10G()
	if ib.Beta >= eth.Beta || ib.Alpha >= eth.Alpha {
		t.Error("IB must be strictly faster than 10G Ethernet")
	}
	if ib.Name != "ib100" || eth.Name != "tcp10g" {
		t.Error("profile names")
	}
}

// Property: ring beats recursive doubling for large n, and vice versa for
// tiny n, across worker counts — the crossover that motivates AlgoAuto.
func TestCrossoverProperty(t *testing.T) {
	f := IB100()
	prop := func(pRaw uint8) bool {
		// Bandwidth side: ring wins on huge vectors for any p ≥ 3 (p=2 is
		// excluded — equal bytes, ring pays one extra latency).
		p := 3 + int(pRaw)%30
		huge := f.RingAllreduce(1e9, p) <= f.RecDoublingAllreduce(1e9, p)
		// Latency side: recursive doubling wins on tiny vectors for
		// power-of-two p ≥ 4, where it has strictly fewer rounds and no
		// fold penalty.
		p2 := 4 << (int(pRaw) % 4)
		tiny := f.RecDoublingAllreduce(8, p2) <= f.RingAllreduce(8, p2)
		return tiny && huge
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestPipelinedSyncTime(t *testing.T) {
	f := IB100()
	enc := []float64{1e-5, 1e-5, 1e-5, 1e-5}
	bytes := []int64{4096, 4096, 4096, 4096}
	uniform := []ExchangeKind{ExchangeAllreduce} // one element prices every bucket
	price := PriceSchedule(f, uniform, enc, bytes, 8)
	over, serial := price.Pipelined, price.Serial
	if over >= serial {
		t.Errorf("pipelined %.3e must undercut serial %.3e", over, serial)
	}
	// Lower bounds: the pipeline can never beat pure encode or pure sync.
	var encSum, syncSum float64
	for i := range enc {
		encSum += enc[i]
		syncSum += f.SyncTime(ExchangeAllreduce, bytes[i], 8)
	}
	if over < encSum || over < syncSum {
		t.Errorf("pipelined %.3e below encode %.3e / sync %.3e floors", over, encSum, syncSum)
	}
	// Single bucket: pipelined degenerates to enc + sync (the serial law).
	one := PriceSchedule(f, uniform, enc[:1], bytes[:1], 8).Pipelined
	if want := enc[0] + f.SyncTime(ExchangeAllreduce, bytes[0], 8); one != want {
		t.Errorf("single bucket %.3e, want %.3e", one, want)
	}
	// No buckets: zero.
	if z := PriceSchedule(f, uniform, nil, nil, 8).Pipelined; z != 0 {
		t.Errorf("empty pipeline %v", z)
	}
}
