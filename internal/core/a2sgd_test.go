package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/tensor"
)

func randGrad(seed uint64, n int) []float32 {
	rng := tensor.NewRNG(seed)
	g := make([]float32, n)
	rng.NormVec(g, 0.02, 0.3)
	return g
}

func TestMeasureMatchesDefinition(t *testing.T) {
	g := []float32{2, -1, 4, -3, 0}
	s := Measure(g)
	// µ+ = (2+4+0)/3 = 2, µ− = (1+3)/2 = 2, nPos = 3.
	if s.NPos != 3 || math.Abs(float64(s.MuPos)-2) > 1e-6 || math.Abs(float64(s.MuNeg)-2) > 1e-6 {
		t.Fatalf("Measure = %+v", s)
	}
}

// Paper invariant (Eq. 2): mean of enc(g) on the non-negative side is µ+
// and on the negative side is −µ−; both means are non-negative.
func TestEncInvariants(t *testing.T) {
	g := randGrad(1, 10000)
	s := Measure(g)
	if s.MuPos < 0 || s.MuNeg < 0 {
		t.Fatal("absolute means must be non-negative")
	}
	enc := make([]float32, len(g))
	Enc(enc, g, s)
	for i, x := range g {
		want := s.MuPos
		if x < 0 {
			want = -s.MuNeg
		}
		if enc[i] != want {
			t.Fatalf("enc[%d] = %v want %v", i, enc[i], want)
		}
	}
}

// Paper invariant (Alg. 1 line 4): the error vector sums to ~0 on each sign
// class, i.e. enc preserves the per-class mass: Σ_pos ε = Σ_pos g − n+·µ+ = 0.
func TestErrorVectorZeroMeanPerClass(t *testing.T) {
	g := randGrad(2, 50000)
	s := Measure(g)
	var sumPos, sumNeg float64
	for _, x := range g {
		if x >= 0 {
			sumPos += float64(x) - float64(s.MuPos)
		} else {
			sumNeg += float64(x) + float64(s.MuNeg)
		}
	}
	if math.Abs(sumPos) > 1e-2 || math.Abs(sumNeg) > 1e-2 {
		t.Errorf("error mass not zero: pos %v neg %v", sumPos, sumNeg)
	}
}

// Single worker: the global means equal the local means, so the
// reconstruction must return exactly the original gradient (ε + enc = g).
// This is the variance-retention property of §3.
func TestSingleWorkerIdentity(t *testing.T) {
	g := randGrad(3, 4096)
	orig := append([]float32(nil), g...)
	a := New(len(g))
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		_, err := compress.Sync(a, g, c)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if math.Abs(float64(g[i]-orig[i])) > 1e-6 {
			t.Fatalf("reconstruction differs at %d: %v vs %v", i, g[i], orig[i])
		}
	}
}

// The synchronized gradient equals g + ∇µ where ∇µ applies the difference
// between global and local means per sign class (Theorem 1's update form).
func TestUpdateEqualsGPlusDeltaMu(t *testing.T) {
	p, n := 3, 500
	grads := make([][]float32, p)
	for r := range grads {
		grads[r] = randGrad(uint64(20+r), n)
	}
	// Expected global means.
	var gp, gn float64
	for _, g := range grads {
		s := Measure(g)
		gp += float64(s.MuPos) / float64(p)
		gn += float64(s.MuNeg) / float64(p)
	}
	out := make([][]float32, p)
	var mu sync.Mutex
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		g := append([]float32(nil), grads[c.Rank()]...)
		a := New(n)
		if _, err := compress.Sync(a, g, c); err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = g
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		s := Measure(grads[r])
		for i, x := range grads[r] {
			var want float64
			if x >= 0 {
				want = float64(x) + gp - float64(s.MuPos)
			} else {
				want = float64(x) - (gn - float64(s.MuNeg))
			}
			if math.Abs(float64(out[r][i])-want) > 1e-4 {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, out[r][i], want)
			}
		}
	}
}

// When all workers hold identical gradients the algorithm must be exact:
// global means == local means, so the output equals the input (which also
// equals the dense average).
func TestIdenticalWorkersExact(t *testing.T) {
	p, n := 8, 1024
	base := randGrad(33, n)
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		g := append([]float32(nil), base...)
		a := New(n)
		if _, err := compress.Sync(a, g, c); err != nil {
			return err
		}
		for i := range g {
			if math.Abs(float64(g[i]-base[i])) > 1e-6 {
				t.Errorf("rank %d differs at %d", c.Rank(), i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Variance retention: Var(g') == Var(g) exactly, because g' differs from g
// only by per-class constant shifts... within each sign class. Check the
// per-class variances are preserved.
func TestVarianceRetention(t *testing.T) {
	p, n := 4, 20000
	grads := make([][]float32, p)
	for r := range grads {
		grads[r] = randGrad(uint64(40+r), n)
	}
	out := make([][]float32, p)
	var mu sync.Mutex
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		g := append([]float32(nil), grads[c.Rank()]...)
		a := New(n)
		if _, err := compress.Sync(a, g, c); err != nil {
			return err
		}
		mu.Lock()
		out[c.Rank()] = g
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	classVar := func(v, ref []float32, wantPos bool) float64 {
		var sum, sq float64
		cnt := 0
		for i, x := range ref {
			if (x >= 0) == wantPos {
				sum += float64(v[i])
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		mean := sum / float64(cnt)
		for i, x := range ref {
			if (x >= 0) == wantPos {
				d := float64(v[i]) - mean
				sq += d * d
			}
		}
		return sq / float64(cnt)
	}
	for r := 0; r < p; r++ {
		for _, pos := range []bool{true, false} {
			vIn := classVar(grads[r], grads[r], pos)
			vOut := classVar(out[r], grads[r], pos)
			if math.Abs(vIn-vOut) > 1e-4*vIn+1e-8 {
				t.Errorf("rank %d pos=%v: variance %v -> %v", r, pos, vIn, vOut)
			}
		}
	}
}

// Property-based: single-worker identity for arbitrary gradients.
func TestSingleWorkerIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(500)
		g := make([]float32, n)
		rng.NormVec(g, float32(rng.Float64()-0.5), float32(rng.Float64()*2+0.01))
		orig := append([]float32(nil), g...)
		a := New(n)
		err := comm.RunGroup(1, func(c *comm.Communicator) error {
			_, e := compress.Sync(a, g, c)
			return e
		})
		if err != nil {
			return false
		}
		for i := range g {
			if math.Abs(float64(g[i]-orig[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the payload is always exactly two values / 64 bits no matter the
// gradient length — the O(1) claim itself.
func TestO1PayloadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(100000)
		g := make([]float32, n)
		rng.NormVec(g, 0, 1)
		a := New(n)
		pl := a.Encode(g)
		return len(pl.Data) == 2 && pl.Bits == 64 && a.PayloadBytes(n) == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNoEFAblation(t *testing.T) {
	// Without error feedback the reconstruction is the pure enc vector:
	// two distinct values only.
	n := 1000
	g := randGrad(50, n)
	a := New(n, WithoutErrorFeedback())
	if a.Name() != "a2sgd-noef" {
		t.Error("name")
	}
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		_, e := compress.Sync(a, g, c)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float32]bool{}
	for _, v := range g {
		distinct[v] = true
	}
	if len(distinct) > 2 {
		t.Errorf("enc-only output has %d distinct values, want ≤ 2", len(distinct))
	}
}

func TestOneMeanAblation(t *testing.T) {
	n := 1000
	g := randGrad(51, n)
	mean := float32(tensor.Sum(g) / float64(n))
	a := New(n, WithOneMean(), WithoutErrorFeedback())
	if a.Name() != "a2sgd-onemean" {
		t.Error("name")
	}
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		_, e := compress.Sync(a, g, c)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g {
		if math.Abs(float64(v-mean)) > 1e-5 {
			t.Fatalf("one-mean output[%d] = %v, want %v", i, v, mean)
		}
	}
}

func TestOneMeanWithEFIdentity(t *testing.T) {
	// One mean + error feedback on a single worker is still the identity.
	n := 512
	g := randGrad(52, n)
	orig := append([]float32(nil), g...)
	a := New(n, WithOneMean())
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		_, e := compress.Sync(a, g, c)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if math.Abs(float64(g[i]-orig[i])) > 1e-5 {
			t.Fatalf("identity violated at %d", i)
		}
	}
}

func TestStatsAccessorAndReset(t *testing.T) {
	a := New(4)
	a.Encode([]float32{1, -1, 3, -3})
	s := a.Stats()
	if s.MuPos != 2 || s.MuNeg != 2 || s.NPos != 2 {
		t.Errorf("Stats = %+v", s)
	}
	a.Reset()
	if a.Stats() != (Stats{}) {
		t.Fatalf("Reset left Stats = %+v", a.Stats())
	}
}

func TestNewPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestEncLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Enc(make([]float32, 3), make([]float32, 4), Stats{})
}

// An instance holds nothing sized by the gradient, so one instance serves
// gradients of any length, whatever n it was built for.
func TestGradientLengthChange(t *testing.T) {
	a := New(4)
	a.Encode(make([]float32, 4))
	g := randGrad(60, 8)
	orig := append([]float32(nil), g...)
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		_, e := compress.Sync(a, g, c)
		return e
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if math.Abs(float64(g[i]-orig[i])) > 1e-5 {
			t.Fatal("identity violated after length change")
		}
	}
}
