package tensor

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"testing"
)

// The oracle for Sigmoid, Tanh and ExpShift: each kernel is held bitwise to
// the scalar expression its doc comment names, written out again here. A NaN
// matches any NaN.

func sigmoidRef(x float32) float32     { return float32(1 / (1 + math.Exp(-float64(x)))) }
func tanhRef(x float32) float32        { return float32(math.Tanh(float64(x))) }
func expShiftRef(x, m float32) float64 { return math.Exp(float64(x - m)) }

func same32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

func same64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// transShifts are the m that ExpShift's oracle takes: none, a softmax row's
// maximum, shifts that move arguments across exp's ±700 fallback line, and
// non-finite ones.
var transShifts = []float32{0, 3.25, -1.5, 650, -650, float32(math.Inf(1)), float32(math.NaN())}

// forTransVariants runs f once per variant of the transcendentals this
// binary can run on this CPU, with that variant active.
func forTransVariants(f func(v transVariant)) {
	defer func(v transVariant) { transActive = v }(transActive)
	for _, v := range transVariants() {
		transActive = v
		f(v)
	}
}

// transKernelsInUse names, for each transcendental, the variant whose
// kernel runs it, or "portable" where the scalar loop does.
func transKernelsInUse() string {
	v := transActive
	sig, exp := "portable", "portable"
	if v.sigmoid != nil {
		sig = v.name
	}
	if v.expShift != nil {
		exp = v.name
	}
	return fmt.Sprintf("Sigmoid, Tanh: %s; ExpShift: %s", sig, exp)
}

// TestTransMatchesScalarSweep runs every variant's kernels over a strided
// walk through all 2³² float32 bit patterns, in chunks whose lengths are
// multiples of every kernel's block, so every block goes through a kernel or
// its fallback. ExpShift takes the shifts in turn, one per chunk.
func TestTransMatchesScalarSweep(t *testing.T) {
	forTransVariants(func(v transVariant) { transSweep(t, v) })
}

func transSweep(t *testing.T, v transVariant) {
	t.Helper()
	stride := uint64(211)
	if raceEnabled {
		stride = 100_003
	}
	const chunk = 4096
	src := make(Vec, chunk)
	d32 := make(Vec, chunk)
	d64 := make([]float64, chunk)
	for c, start := 0, uint64(0); start < 1<<32; c, start = c+1, start+stride*chunk {
		n := 0
		for ; n < chunk && start+uint64(n)*stride < 1<<32; n++ {
			src[n] = math.Float32frombits(uint32(start + uint64(n)*stride))
		}
		xs := src[:n]
		Sigmoid(d32[:n], xs)
		for i, x := range xs {
			if !same32(d32[i], sigmoidRef(x)) {
				t.Fatalf("%s: Sigmoid(%g [%#08x]) = %g, scalar %g", v.name, x, math.Float32bits(x), d32[i], sigmoidRef(x))
			}
		}
		Tanh(d32[:n], xs)
		for i, x := range xs {
			if !same32(d32[i], tanhRef(x)) {
				t.Fatalf("%s: Tanh(%g [%#08x]) = %g, scalar %g", v.name, x, math.Float32bits(x), d32[i], tanhRef(x))
			}
		}
		m := transShifts[c%len(transShifts)]
		ExpShift(d64[:n], xs, m)
		for i, x := range xs {
			if !same64(d64[i], expShiftRef(x, m)) {
				t.Fatalf("%s: ExpShift(%g [%#08x], m=%g) = %g, scalar %g", v.name, x, math.Float32bits(x), m, d64[i], expShiftRef(x, m))
			}
		}
	}
}

// TestTransTails covers, on every variant, every length from 0 to 35 at
// four alignments, with inputs that make blocks decline the kernel (NaN,
// ±Inf, beyond ±700) mixed among ordinary ones and tanh's branch points, out
// of place and in place; no element outside the range may be written.
func TestTransTails(t *testing.T) {
	forTransVariants(func(v transVariant) { transTails(t, v) })
}

func transTails(t *testing.T, v transVariant) {
	t.Helper()
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	specials := []float32{nan, inf, -inf, 701, -701, 700, -700, 0, float32(math.Copysign(0, -1)),
		0.625, -0.625, 44.014847, -44.014847, 88.72, -103.9, 1e-30, 1e-45, -3e38}
	const sentinel = 12345.5
	rng := NewRNG(36)
	src := make(Vec, 40)
	d32 := make(Vec, len(src))
	d64 := make([]float64, len(src))
	for off := 0; off < 4; off++ {
		for n := 0; n <= 35; n++ {
			for trial := 0; trial < 16; trial++ {
				for i := range src {
					if rng.Intn(4) == 0 {
						src[i] = specials[rng.Intn(len(specials))]
					} else {
						src[i] = (rng.Float32() - 0.5) * 40
					}
					d32[i], d64[i] = sentinel, sentinel
				}
				x, y, z := src[off:off+n], d32[off:off+n], d64[off:off+n]
				m := transShifts[rng.Intn(len(transShifts))]
				check := func(op string, in, got Vec, ref func(float32) float32) {
					t.Helper()
					for i, e := range in {
						if !same32(got[i], ref(e)) {
							t.Fatalf("%s: %s off=%d n=%d: [%d] of %g = %g, scalar %g", v.name, op, off, n, i, e, got[i], ref(e))
						}
					}
				}
				Sigmoid(y, x)
				check("Sigmoid", x, y, sigmoidRef)
				Tanh(y, x)
				check("Tanh", x, y, tanhRef)
				ExpShift(z, x, m)
				for i, e := range x {
					if !same64(z[i], expShiftRef(e, m)) {
						t.Fatalf("%s: ExpShift off=%d n=%d m=%g: [%d] of %g = %g, scalar %g", v.name, off, n, m, i, e, z[i], expShiftRef(e, m))
					}
				}
				for i := range d32 {
					if (i < off || i >= off+n) && (d32[i] != sentinel || d64[i] != sentinel) {
						t.Fatalf("%s: off=%d n=%d: element %d outside the range was written", v.name, off, n, i)
					}
				}
				in := append(Vec(nil), x...)
				Tanh(x, x)
				check("Tanh in place", in, x, tanhRef)
				copy(x, in)
				Sigmoid(x, x)
				check("Sigmoid in place", in, x, sigmoidRef)
			}
		}
	}
}

// transMidpoints are arguments whose reference's float64 value lies near a
// float32 rounding midpoint, d float64 ulps from it (found by scanning
// every float32 in [10⁻³, 20] in magnitude and, for the smallest ones, by
// TestTransExhaustive): within the 512-ulp margin a kernel must decline the
// block, beyond it run it. The kernels' own float64 values lie within 4
// ulps of these references, far less than the distance from the entries to
// 256, 512 and 1024.
var transMidpoints = []struct {
	tanh bool
	bits uint32
	d    int
}{
	{false, 0xbe104170, 0}, {false, 0x3d21bc81, 0}, {false, 0xba928601, 0},
	{false, 0x3dcec83d, 381}, {false, 0xbfca365d, -469}, {false, 0x415f61d3, 360},
	{false, 0xc125db78, 352}, {false, 0x33ffffe7, -400},
	{false, 0x3de7369a, -636}, {false, 0xbf8428d0, -679}, {false, 0x412eb8dd, 693},
	{true, 0x39b89ba2, 32}, {true, 0x39b89b9d, 365}, {true, 0x3dec9300, -405},
	{true, 0xbf97367c, -320}, {true, 0x3a8c2506, 444},
	{true, 0x3dd1a85c, 601}, {true, 0xbf94c722, -588}, {true, 0xbaa2eec1, -601},
}

// TestTransMidpoints holds every kernel variant to the rounding test's
// margin: a block whose last lane holds one of transMidpoints (the others
// 0.25, which passes) is declined exactly when the entry lies within 512
// ulps, and Sigmoid and Tanh give the scalar bits either way. A dropped
// midpoint test, or a margin a bit smaller or larger, fails it.
func TestTransMidpoints(t *testing.T) {
	forTransVariants(func(v transVariant) {
		if v.lanes == 0 {
			return
		}
		src, dst := make(Vec, v.lanes), make(Vec, v.lanes)
		for _, m := range transMidpoints {
			for i := range src {
				src[i] = 0.25
			}
			x := math.Float32frombits(m.bits)
			src[v.lanes-1] = x
			name, kernel, ref, op := "Sigmoid", v.sigmoid, sigmoidRef, Sigmoid
			if m.tanh {
				name, kernel, ref, op = "Tanh", v.tanh, tanhRef, Tanh
			}
			want := v.lanes
			if m.d >= -512 && m.d <= 512 {
				want = 0
			}
			if got := kernel(dst, src); got != want {
				t.Errorf("%s: %s kernel on %g [%#08x] (%d ulps from a midpoint) finished %d of %d lanes, want %d",
					v.name, name, x, m.bits, m.d, got, v.lanes, want)
			}
			op(dst, src)
			if !same32(dst[v.lanes-1], ref(x)) || !same32(dst[0], ref(0.25)) {
				t.Errorf("%s: %s(%g [%#08x]) = %g, scalar %g", v.name, name, x, m.bits, dst[v.lanes-1], ref(x))
			}
		}
	})
}

// TestTransZeroAlloc: on every variant, the block walk's closures stay on
// the stack, declined blocks included.
func TestTransZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	src := make(Vec, 64)
	NewRNG(1).NormVec(src, 0, 2)
	src[5], src[20] = 701, float32(math.NaN())
	src[41] = math.Float32frombits(transMidpoints[0].bits)
	d32 := make(Vec, len(src))
	d64 := make([]float64, len(src))
	forTransVariants(func(v transVariant) {
		if n := testing.AllocsPerRun(10, func() {
			Sigmoid(d32, src)
			Tanh(d32, src)
			ExpShift(d64, src, 1)
		}); n != 0 {
			t.Errorf("%s: Sigmoid+Tanh+ExpShift make %v allocs/op", v.name, n)
		}
	})
}

// TestTransWithoutFMA reruns the oracles in a process whose math.Exp is off
// its FMA path (GODEBUG=cpu.fma=off). Sigmoid's and Tanh's kernels stay on
// and must still give the scalar bits: their rounding test covers both
// paths. ExpShift's start-up probe must see the change and leave its
// kernel off (TestTransKernelsRun checks which), or about one exp in ten
// differs in its last bit.
func TestTransWithoutFMA(t *testing.T) {
	if os.Getenv("GODEBUG") == "cpu.fma=off" {
		t.Skip("already the child")
	}
	run := "^(TestTransMatchesScalarSweep|TestTransTails|TestTransMidpoints|TestTransKernelsRun)$"
	cmd := exec.Command(os.Args[0], "-test.run="+run, "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s under GODEBUG=cpu.fma=off: %v\n%s", run, err, out)
	}
	t.Logf("under GODEBUG=cpu.fma=off:\n%s", out)
}
