package compress

import (
	"math"
	"testing"
	"testing/quick"

	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

func TestQSGDRoundTripBounds(t *testing.T) {
	// Every decoded value must be one of the s+1 levels of ‖g‖₂ with the
	// original sign, and |decoded − original| ≤ ‖g‖₂/s.
	n := 1000
	o := DefaultOptions(n)
	o.Seed = 21
	q := NewQSGD(o)
	g := randGrad(17, n)
	norm := tensor.Norm2(g)
	p := q.Encode(g)
	dec := make([]float32, n)
	q.Decode(p.Data, dec)
	step := norm / float64(q.Levels())
	for i := range g {
		d := math.Abs(float64(dec[i]) - float64(g[i]))
		if d > step+1e-6 {
			t.Fatalf("elem %d: |%v - %v| = %v > level step %v", i, dec[i], g[i], d, step)
		}
		if dec[i] != 0 && (dec[i] > 0) != (g[i] >= 0) {
			t.Fatalf("elem %d: sign flipped: %v vs %v", i, dec[i], g[i])
		}
		// Must be an exact multiple of norm/s.
		lv := math.Abs(float64(dec[i])) / step
		if math.Abs(lv-math.Round(lv)) > 1e-4 {
			t.Fatalf("elem %d: %v is not a quantization level", i, dec[i])
		}
	}
}

func TestQSGDUnbiased(t *testing.T) {
	// E[decode(encode(g))] == g: average many stochastic encodings.
	n := 64
	g := randGrad(23, n)
	o := DefaultOptions(n)
	mean := make([]float64, n)
	const trials = 3000
	for tr := 0; tr < trials; tr++ {
		o.Seed = uint64(1000 + tr)
		q := NewQSGD(o)
		p := q.Encode(g)
		dec := make([]float32, n)
		q.Decode(p.Data, dec)
		for i := range mean {
			mean[i] += float64(dec[i]) / trials
		}
	}
	norm := tensor.Norm2(g)
	for i := range g {
		// Standard error of the quantizer is ~norm/s per draw.
		tol := 4 * norm / float64(o.QuantLevels) / math.Sqrt(trials)
		if math.Abs(mean[i]-float64(g[i])) > tol+1e-4 {
			t.Fatalf("elem %d: E[q] = %v, want %v (tol %v)", i, mean[i], g[i], tol)
		}
	}
}

func TestQSGDZeroVector(t *testing.T) {
	q := NewQSGD(DefaultOptions(16))
	g := make([]float32, 16)
	p := q.Encode(g)
	dec := make([]float32, 16)
	tensor.Fill(dec, 9)
	q.Decode(p.Data, dec)
	for i, v := range dec {
		if v != 0 {
			t.Fatalf("zero vector decoded to %v at %d", v, i)
		}
	}
}

func TestQSGDBitsAccounting(t *testing.T) {
	// s = 4 → 3 level bits + 1 sign = 4 bits per element + 32 for the norm.
	n := 1000
	q := NewQSGD(DefaultOptions(n))
	p := q.Encode(make([]float32, n))
	if p.Bits != int64(4*n+32) {
		t.Errorf("bits = %d, want %d", p.Bits, 4*n+32)
	}
	if q.PayloadBytes(n) != int64((4*n+32+7)/8) {
		t.Errorf("payload bytes = %d", q.PayloadBytes(n))
	}
	// Packed words: ceil(4000/32) = 125 plus the norm word.
	if len(p.Data) != 126 {
		t.Errorf("packed words = %d, want 126", len(p.Data))
	}
	if q.ExchangeKind() != netsim.ExchangeAllreduce {
		t.Error("kind")
	}
	if q.Name() != "qsgd" {
		t.Error("name")
	}
}

func TestQSGDLevelsClamp(t *testing.T) {
	q := NewQSGD(Options{N: 10, QuantLevels: 0, Seed: 1})
	if q.Levels() != 1 {
		t.Errorf("levels clamped to %d, want 1", q.Levels())
	}
}

// Property: round trip of arbitrary gradients never produces NaN/Inf and
// respects the level-step error bound.
func TestQSGDProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(300)
		g := make([]float32, n)
		rng.NormVec(g, 0, float32(rng.Float64()*10))
		o := DefaultOptions(n)
		o.Seed = seed
		q := NewQSGD(o)
		p := q.Encode(g)
		dec := make([]float32, n)
		q.Decode(p.Data, dec)
		if tensor.HasNaNOrInf(dec) {
			return false
		}
		step := tensor.Norm2(g)/float64(q.Levels()) + 1e-6
		for i := range g {
			if math.Abs(float64(dec[i]-g[i])) > step {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQSGDSyncApproximatesAverage(t *testing.T) {
	p, n := 4, 2000
	grads := make([][]float32, p)
	for r := range grads {
		grads[r] = randGrad(uint64(30+r), n)
	}
	want := denseAverage(grads)
	out := runSync(t, p, func(rank int) Algorithm {
		o := DefaultOptions(n)
		o.Seed = uint64(rank + 1)
		return NewQSGD(o)
	}, grads)
	// Per-element quantization error is ≤ ‖g_w‖/s per worker; averaging p
	// independent workers shrinks the RMS by ~1/√p. Use the largest worker
	// norm for a safe analytic bound.
	var rms, maxNorm float64
	for _, g := range grads {
		if nn := tensor.Norm2(g); nn > maxNorm {
			maxNorm = nn
		}
	}
	for i := range want {
		d := float64(out[0][i] - want[i])
		rms += d * d
	}
	rms = math.Sqrt(rms / float64(n))
	bound := maxNorm / 4 / math.Sqrt(float64(p))
	if rms > bound {
		t.Errorf("rms error %v exceeds bound %v", rms, bound)
	}
	// All ranks must agree exactly (same gathered data).
	for r := 1; r < p; r++ {
		for i := range out[0] {
			if out[r][i] != out[0][i] {
				t.Fatalf("ranks disagree at %d", i)
			}
		}
	}
}
