package tensor

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("RNG not deterministic at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d/1000 equal draws", same)
	}
}

func TestRNGFloat32Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", f)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := float64(r.Norm())
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation element %d", v)
		}
		seen[v] = true
	}
}

func TestZipfDistribution(t *testing.T) {
	r := NewRNG(11)
	z := NewZipf(r, 50, 1.0)
	counts := make([]int, 50)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be the most frequent and ranks must broadly decay.
	if counts[0] <= counts[10] || counts[10] <= counts[40] {
		t.Errorf("Zipf counts not decaying: c0=%d c10=%d c40=%d", counts[0], counts[10], counts[40])
	}
}

func TestVecBasics(t *testing.T) {
	v := NewVec(4)
	Fill(v, 2)
	w := Vec{1, 2, 3, 4}
	Add(v, w)
	want := Vec{3, 4, 5, 6}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Add: v[%d]=%v want %v", i, v[i], want[i])
		}
	}
	Sub(v, w)
	for i := range v {
		if v[i] != 2 {
			t.Fatalf("Sub: v[%d]=%v want 2", i, v[i])
		}
	}
	Mul(v, w)
	Scale(v, 0.5)
	want = Vec{1, 2, 3, 4}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Mul/Scale: v[%d]=%v want %v", i, v[i], want[i])
		}
	}
	AXPY(v, 2, w)
	for i := range v {
		if v[i] != 3*w[i] {
			t.Fatalf("AXPY: v[%d]=%v want %v", i, v[i], 3*w[i])
		}
	}
}

func TestVecLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Add(NewVec(3), NewVec(4))
}

func TestDotSumNorm(t *testing.T) {
	a := Vec{1, 2, 3}
	if got := Sum(a); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	if got := Norm2(Vec{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := MaxIdx(Vec{1, 9, 3}); got != 1 {
		t.Errorf("MaxIdx = %v, want 1", got)
	}
	if got := MaxIdx(nil); got != -1 {
		t.Errorf("MaxIdx(nil) = %v, want -1", got)
	}
}

func TestSignedMeans(t *testing.T) {
	v := Vec{1, -2, 3, -4, 0}
	mp, mn, np := SignedMeans(v)
	if np != 3 {
		t.Errorf("nPos = %d, want 3", np)
	}
	if !almostEq(float64(mp), 4.0/3, 1e-6) {
		t.Errorf("muPos = %v, want 4/3", mp)
	}
	if !almostEq(float64(mn), 3, 1e-6) {
		t.Errorf("muNeg = %v, want 3", mn)
	}
}

func TestSignedMeansEdge(t *testing.T) {
	mp, mn, np := SignedMeans(Vec{1, 2})
	if mn != 0 || np != 2 || !almostEq(float64(mp), 1.5, 1e-6) {
		t.Errorf("all-positive: got %v %v %d", mp, mn, np)
	}
	mp, mn, np = SignedMeans(Vec{-1, -3})
	if mp != 0 || np != 0 || !almostEq(float64(mn), 2, 1e-6) {
		t.Errorf("all-negative: got %v %v %d", mp, mn, np)
	}
	mp, mn, np = SignedMeans(nil)
	if mp != 0 || mn != 0 || np != 0 {
		t.Errorf("empty: got %v %v %d", mp, mn, np)
	}
}

// Property: ParSignedMeans is the serial single-pass version, bit for bit,
// whatever -cpu the test runs under.
func TestParSignedMeansMatchesSerial(t *testing.T) {
	r := NewRNG(3)
	v := make(Vec, 300000)
	r.NormVec(v, 0.1, 1.5)
	mp1, mn1, np1 := SignedMeans(v)
	mp2, mn2, np2 := ParSignedMeans(v)
	if np1 != np2 {
		t.Fatalf("nPos mismatch: %d vs %d", np1, np2)
	}
	if math.Float32bits(mp1) != math.Float32bits(mp2) || math.Float32bits(mn1) != math.Float32bits(mn2) {
		t.Fatalf("means mismatch: (%v,%v) vs (%v,%v)", mp1, mn1, mp2, mn2)
	}
}

// Property-based: the signed means bracket the data correctly for random
// vectors: every non-negative element contributes to muPos etc.
func TestSignedMeansProperty(t *testing.T) {
	f := func(raw []float32) bool {
		v := make(Vec, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) {
				// Keep magnitudes sane to avoid float32 overflow artifacts.
				if x > 1e6 {
					x = 1e6
				}
				if x < -1e6 {
					x = -1e6
				}
				v = append(v, x)
			}
		}
		mp, mn, np := SignedMeans(v)
		var sp, sn float64
		cp := 0
		for _, x := range v {
			if x >= 0 {
				sp += float64(x)
				cp++
			} else {
				sn += float64(-x)
			}
		}
		if cp != np {
			return false
		}
		wantP := 0.0
		if cp > 0 {
			wantP = sp / float64(cp)
		}
		wantN := 0.0
		if len(v)-cp > 0 {
			wantN = sn / float64(len(v)-cp)
		}
		return almostEq(float64(mp), wantP, 1e-4) && almostEq(float64(mn), wantN, 1e-4) && mp >= 0 && mn >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Every HasNaNOrInf variant agrees with the scalar loop: finite vectors of
// every length from 0 to 67, salted with −0, subnormals and the largest
// finite values, at two alignments, read false — with a NaN just past the
// end of the slice, which no kernel may read — and each non-finite pattern
// (NaNs quiet, with payloads and signalling, ±Inf) at every position reads
// true.
func TestHasNaNOrInf(t *testing.T) {
	finite := []uint32{0, 0x80000000, 0x00000001, 0x807fffff, 0x00800000, 0x7f7fffff, 0xff7fffff, 0x3f800000}
	nonFinite := []uint32{0x7fc00000, 0xffc12345, 0x7f800001, 0xffbfffff, 0x7f800000, 0xff800000}
	defer func(v finiteVariant) { finiteActive = v }(finiteActive)
	rng := NewRNG(89)
	buf := make(Vec, 70)
	for _, fv := range finiteVariants() {
		finiteActive = fv
		for off := 0; off < 2; off++ {
			for n := 0; n <= 67; n++ {
				for i := range buf {
					buf[i] = math.Float32frombits(finite[rng.Intn(len(finite))])
				}
				buf[off+n] = float32(math.NaN())
				v := buf[off : off+n]
				if got, want := HasNaNOrInf(v), hasNaNOrInfScalar(v); got || want {
					t.Fatalf("%s: off %d, n %d, finite: %v, scalar %v", fv.name, off, n, got, want)
				}
				for p := range v {
					x := v[p]
					for _, bits := range nonFinite {
						v[p] = math.Float32frombits(bits)
						if !HasNaNOrInf(v) {
							t.Fatalf("%s: off %d, n %d: missed %#08x at %d", fv.name, off, n, bits, p)
						}
					}
					v[p] = x
				}
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vec{1, 2, 3}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(42)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("split streams collide: %d/1000", same)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestZipfInvalidNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZipf(NewRNG(1), 0, 1)
}

func TestUniformVecRange(t *testing.T) {
	r := NewRNG(8)
	v := make(Vec, 1000)
	r.UniformVec(v, -2, 3)
	for _, x := range v {
		if x < -2 || x >= 3 {
			t.Fatalf("out of range: %v", x)
		}
	}
}

// steadyMallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the
// mallocs of the whole process per call of f at the GOMAXPROCS in force, over
// ten calls, rounded down. A window that is not clean is retried, because
// until the scheduler's free lists are warm on every P a go statement
// allocates the goroutine itself — the steady state is what is asserted.
func steadyMallocsPerRun(f func()) (perRun uint64) {
	const runs = 10
	for window := 0; window < 40; window++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if perRun = (after.Mallocs - before.Mallocs) / runs; perRun == 0 {
			break
		}
	}
	return perRun
}

// TestParSignedMeansHonorsRuntimeGOMAXPROCS: GOMAXPROCS, read per call,
// decides only how many goroutines reduce the blocks of a long vector — the
// result is bitwise SignedMeans and the call allocates nothing, fanned out
// (above 2·meansParMin with more than one CPU) or not.
func TestParSignedMeansHonorsRuntimeGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	long := make(Vec, 2*meansParMin+meansBlock+meansLanes+3)
	NewRNG(5).NormVec(long, 0, 1)
	for _, v := range []Vec{long[:8<<14], long[:2*meansParMin-1], long} {
		wp, wn, wnp := SignedMeans(v)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			mp, mn, np := ParSignedMeans(v)
			if math.Float32bits(mp) != math.Float32bits(wp) || math.Float32bits(mn) != math.Float32bits(wn) || np != wnp {
				t.Errorf("n=%d GOMAXPROCS(%d): (%v, %v, %d), SignedMeans gives (%v, %v, %d)", len(v), procs, mp, mn, np, wp, wn, wnp)
			}
			if raceEnabled {
				continue
			}
			if a := steadyMallocsPerRun(func() { ParSignedMeans(v) }); a != 0 {
				t.Errorf("n=%d GOMAXPROCS(%d): ParSignedMeans makes %d allocs/op", len(v), procs, a)
			}
		}
	}
}
