package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// The oracle is the specification as a triple loop: one float32
// accumulator per output element, k ascending, one FMA32 per term. Every
// kernel variant compiled into the test binary must reproduce it bit for
// bit.

// gemmCase is one product described on dense logical operands; the views
// handed to Gemm are built from them by embed.
type gemmCase struct {
	m, n, k        int
	a, b, c0       []float32 // logical A (m×k), B (k×n), initial C (m×n), row-major
	transA, transB bool      // store A as k×m / B as n×k and pass the transposed view
	pad            int       // extra storage columns per row: leading dimension > cols
	add            bool
	sums           []float32 // oracle sums, filled on first use
}

func (g *gemmCase) String() string {
	return fmt.Sprintf("%dx%dx%d transA=%v transB=%v pad=%d add=%v", g.m, g.n, g.k, g.transA, g.transB, g.pad, g.add)
}

// oracle computes the specified result from the logical operands. The sums
// are computed once and shared by every transpose and padding of the case.
func (g *gemmCase) oracle() []float32 {
	if g.sums == nil {
		bt := make([]float32, g.n*g.k) // B transposed, so the inner loop is contiguous
		for p := 0; p < g.k; p++ {
			for j := 0; j < g.n; j++ {
				bt[j*g.k+p] = g.b[p*g.n+j]
			}
		}
		sums := make([]float32, g.m*g.n)
		for i := 0; i < g.m; i++ {
			ar := g.a[i*g.k : (i+1)*g.k]
			for j := 0; j < g.n; j++ {
				br := bt[j*g.k : (j+1)*g.k]
				var acc float32
				for p, x := range ar {
					acc = FMA32(x, br[p], acc)
				}
				sums[i*g.n+j] = acc
			}
		}
		g.sums = sums
	}
	if !g.add {
		return g.sums
	}
	out := make([]float32, g.m*g.n)
	for i, s := range g.sums {
		out[i] = g.c0[i] + s
	}
	return out
}

// poison fills the storage no operand element occupies: a kernel that reads
// it produces NaN, one that writes it is caught by run.
var poison = float32(math.NaN())

// embed stores the logical rows×cols matrix with pad extra columns per
// storage row — transposed storage when trans — and returns the view that
// reads it back as rows×cols.
func embed(data []float32, rows, cols int, trans bool, pad int) View {
	sr, sc := rows, cols
	if trans {
		sr, sc = cols, rows
	}
	ld := sc + pad
	st := make([]float32, sr*ld)
	for i := range st {
		st[i] = poison
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if trans {
				st[j*ld+i] = data[i*cols+j]
			} else {
				st[i*ld+j] = data[i*cols+j]
			}
		}
	}
	v := View{Rows: sr, Cols: sc, RowStride: ld, ColStride: 1, Data: st}
	if trans {
		v = v.T()
	}
	return v
}

func sameBits(x, y float32) bool {
	if x != x && y != y {
		return true // NaN payloads are not part of the contract
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// run executes the case through Gemm or GemmAdd, once per kernel variant
// this binary can run on this CPU — the portable kernels the purego tag and
// other architectures use, and every assembly variant compiled in — and
// compares each with the oracle.
func (g *gemmCase) run(t *testing.T) {
	t.Helper()
	a := embed(g.a, g.m, g.k, g.transA, g.pad)
	b := embed(g.b, g.k, g.n, g.transB, g.pad)
	want := g.oracle()
	defer func(v gemmVariant) { gemmActive = v }(gemmActive)
	for _, v := range gemmVariants() {
		gemmActive = v
		c := embed(g.c0, g.m, g.n, false, g.pad)
		if g.add {
			GemmAdd(c, a, b)
		} else {
			Gemm(c, a, b)
		}
		for i := 0; i < g.m; i++ {
			for j := 0; j < c.RowStride; j++ {
				got := c.Data[i*c.RowStride+j]
				if j >= g.n {
					if got == got {
						t.Fatalf("%v %s: padding of row %d overwritten", g, v.name, i)
					}
				} else if !sameBits(got, want[i*g.n+j]) {
					t.Fatalf("%v %s: element (%d,%d) = %x (%v), oracle %x (%v)", g, v.name, i, j,
						math.Float32bits(got), got, math.Float32bits(want[i*g.n+j]), want[i*g.n+j])
				}
			}
		}
	}
}

// gemmVec draws operands that stress the bitwise claim: exact zeros of both
// signs and ordinary values, and — when harsh — denormals and magnitudes
// whose products overflow and underflow. Harsh draws are for a share of the
// cases only: every denormal operand costs the hardware a microcode assist
// per use, which would dominate the test's run time.
func gemmVec(rng *RNG, n int, harsh bool) []float32 {
	v := make([]float32, n)
	for i := range v {
		c := rng.Intn(12)
		if c >= 2 && !harsh {
			c = 5
		}
		switch c {
		case 0:
			v[i] = 0
		case 1:
			v[i] = float32(math.Copysign(0, -1))
		case 2:
			v[i] = 1e-40 * (rng.Float32() - 0.5) // denormal
		case 3:
			v[i] = 1e30 * (rng.Float32() - 0.5)
		case 4:
			v[i] = 1e-30 * (rng.Float32() - 0.5)
		default:
			v[i] = rng.Float32() - 0.5
		}
	}
	return v
}

// newGemmCase draws the operands of an m×n×k product, harsh ones for every
// eighth case.
func newGemmCase(rng *RNG, m, n, k int) *gemmCase {
	harsh := rng.Intn(8) == 0
	return &gemmCase{m: m, n: n, k: k, a: gemmVec(rng, m*k, harsh), b: gemmVec(rng, k*n, harsh), c0: gemmVec(rng, m*n, harsh)}
}

// legacyForms are the three products the MatMul wrappers issue.
var legacyForms = []struct{ transA, transB bool }{
	{false, false}, // MatMul
	{true, false},  // MatMulATB
	{false, true},  // MatMulABT
}

func TestGemmMatchesOracleSmallShapes(t *testing.T) {
	limit := 35
	if testing.Short() || raceEnabled {
		limit = 19 // still every remainder of every tile dimension
	}
	rng := NewRNG(41)
	cnt := 0
	for m := 0; m <= limit; m++ {
		for n := 0; n <= limit; n++ {
			for k := 0; k <= limit; k++ {
				g := newGemmCase(rng, m, n, k)
				for _, f := range legacyForms {
					cnt++
					g.transA, g.transB = f.transA, f.transB
					g.add = cnt&1 == 1
					g.pad = cnt / 2 % 3
					g.run(t)
				}
				// The general entry point takes any transpose; rotate
				// through the remaining combination.
				cnt++
				g.transA, g.transB = cnt&1 == 1, cnt&2 == 2
				g.add = cnt>>2&1 == 1
				g.pad = cnt % 3
				g.run(t)
			}
		}
	}
}

func TestGemmMatchesOracleLargeShapes(t *testing.T) {
	rng := NewRNG(43)
	shapes := [][3]int{
		{8, 4096, 27}, {16, 1024, 72}, {24, 256, 216}, {32, 64, 288}, // reduced vgg16 forward
		{288, 64, 32}, {27, 512, 8}, // … and its column gradients
		{16, 128, 32}, {128, 32, 16}, {16, 32, 128}, // reduced lstm
		{130, 90, 70}, {67, 129, 301}, {256, 256, 256},
	}
	for it := 0; it < 12; it++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(150), 1 + rng.Intn(150), 1 + rng.Intn(400)})
	}
	for i, s := range shapes {
		g := newGemmCase(rng, s[0], s[1], s[2])
		for _, f := range legacyForms {
			g.transA, g.transB = f.transA, f.transB
			for _, add := range []bool{false, true} {
				g.add, g.pad = add, i%2*5
				g.run(t)
			}
		}
	}
}

// Operands at both ends of float32's range: subnormals, whose products
// underflow, and magnitudes near the largest finite float32, whose products
// and sums overflow. A fused term keeps the whole product — its low bits
// below float32's subnormals, its magnitude past float32's largest finite —
// and rounds only the sum, so a variant that rounded the product on its own
// would miss these expectations, which come from FMA32.
func TestGemmMatchesOracleExtremeOperands(t *testing.T) {
	rng := NewRNG(47)
	extreme := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			sign := uint32(rng.Intn(2)) << 31
			switch rng.Intn(3) {
			case 0:
				v[i] = math.Float32frombits(sign | uint32(1+rng.Intn(0x7fffff))) // subnormal
			case 1:
				v[i] = math.Float32frombits(sign | uint32(0x7f000000+rng.Intn(0x7fffff))) // ≥ 1.7e38
			default:
				v[i] = rng.Float32() - 0.5
			}
		}
		return v
	}
	for _, s := range [][3]int{{4, 8, 27}, {5, 9, 33}, {8, 16, 72}, {1, 24, 144}, {13, 11, 7}} {
		m, n, k := s[0], s[1], s[2]
		g := &gemmCase{m: m, n: n, k: k, a: extreme(m * k), b: extreme(k * n), c0: extreme(m * n)}
		for i, f := range legacyForms {
			g.transA, g.transB, g.add = f.transA, f.transB, i%2 == 1
			g.run(t)
			g.add = !g.add
			g.run(t)
		}
	}
}

// A product whose B panels are packed for reuse (gemmPackRows rows, a span
// past gemmPackSpan) and a product above the row-parallel threshold, plain
// and segmented: the packing and the worker seams must not show.
func TestGemmBlockedAndParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := NewRNG(47)
	tall := newGemmCase(rng, gemmPackRows+3, 25, gemmPackSpan/25+5)
	tall.run(t)
	m, n, k := 424, 400, 400
	if m*n*k < 2*gemmParMACs {
		t.Fatalf("shape below the parallel threshold")
	}
	g := newGemmCase(rng, m, n, k)
	for _, f := range legacyForms {
		g.transA, g.transB, g.add = f.transA, f.transB, true
		g.run(t)
	}
	// The segmented product splits over rows the same way.
	defer func(v gemmVariant) { gemmActive = v }(gemmActive)
	a, b := embed(g.a, m, k, false, 0), embed(g.b, k, n, true, 0)
	gemmActive = gemmPortable
	want := embed(g.c0, m, n, false, 0)
	gemmAddLoop(want, a, b, 16)
	for _, v := range gemmVariants() {
		gemmActive = v
		got := embed(g.c0, m, n, false, 0)
		GemmAddSegmented(got, a, b, 16)
		for i := range got.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Fatalf("%s: segmented %dx%dx%d element %d = %#x, GemmAdd loop %#x", v.name, m, n, k, i,
					math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
}

// skipZeroMul is the row-AXPY MatMul this package used to have, zero skip
// included.
func skipZeroMul(a, b []float32, m, n, k int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] = FMA32(av, b[p*n+j], out[i*n+j])
			}
		}
	}
	return out
}

// The old loops skipped terms whose left factor was zero. On finite operands
// that shows at most in the sign of a zero: a ±0 term adds an exact ±0,
// which changes only an accumulator that is a zero of the other sign. With
// a fused term an accumulator can be −0 — a nonzero exact product smaller
// than half the least subnormal rounds to −0 — so a skipped +0 term leaves
// a −0 that the unskipped one turns into +0; every other bit agrees. On
// non-finite operands the skip shows: 0 × Inf is NaN.
func TestGemmZeroSkipUnobservableOnFiniteOperands(t *testing.T) {
	rng := NewRNG(53)
	for it := 0; it < 200; it++ {
		g := newGemmCase(rng, 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20))
		// Half the left operand zero, of both signs.
		for i := range g.a {
			if rng.Intn(2) == 0 {
				g.a[i] = float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
			}
		}
		want := skipZeroMul(g.a, g.b, g.m, g.n, g.k)
		for i, s := range g.oracle() {
			if !sameBits(s, want[i]) && !(s == 0 && want[i] == 0) {
				t.Fatalf("%v: element %d: oracle %x, zero-skipping loop %x", g, i, math.Float32bits(s), math.Float32bits(want[i]))
			}
		}
		g.run(t)
	}

	tiny := math.Float32frombits(1)
	g := &gemmCase{m: 1, n: 1, k: 2, a: []float32{tiny, 0}, b: []float32{-tiny, 1}, c0: []float32{0}}
	if got := g.oracle()[0]; math.Float32bits(got) != 0 {
		t.Errorf("2⁻¹⁴⁹·(−2⁻¹⁴⁹) + 0·1 = %v, want +0 (−0 + +0)", got)
	}
	g.run(t)
	if got := skipZeroMul(g.a, g.b, 1, 1, 2)[0]; math.Float32bits(got) != 0x80000000 {
		t.Errorf("zero-skipping loop gave %v, want −0", got)
	}

	g = &gemmCase{m: 1, n: 1, k: 2, a: []float32{0, 1}, b: []float32{float32(math.Inf(1)), 2}, c0: []float32{0}}
	if got := g.oracle()[0]; got == got {
		t.Errorf("0×Inf + 1×2 = %v, want NaN (no term is skipped)", got)
	}
	g.run(t)
	if got := skipZeroMul(g.a, g.b, 1, 1, 2)[0]; got != 2 {
		t.Errorf("zero-skipping loop gave %v, want 2", got)
	}
}

// The edge tiles: every column count from 1 to 72 — a ragged last panel
// runs the variant's narrower kernels in place (a 32-lane variant's 27
// columns as 16 + 8 + 3), fewer than 8 leftover lanes the scratch tile —
// on full and ragged row tiles, held to the oracle on every variant, with
// B read in place and packed.
func TestGemmEdgeTileMatchesOracle(t *testing.T) {
	rng := NewRNG(79)
	cnt := 0
	for _, m := range []int{4, 8, 9} {
		for n := 1; n <= 72; n++ {
			for _, k := range []int{1, 5, 64} {
				g := newGemmCase(rng, m, n, k)
				for _, f := range legacyForms {
					cnt++
					g.transA, g.transB, g.add, g.pad = f.transA, f.transB, cnt&1 == 1, cnt%3
					g.run(t)
				}
			}
		}
	}
}

// segVec draws ordinary values salted with zeros of both signs, subnormals
// and magnitudes whose products and sums overflow, and puts one +Inf, one
// −Inf and one NaN at random positions — few enough that most sums stay
// finite.
func segVec(rng *RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch c := rng.Intn(256); {
		case c < 8:
			v[i] = math.Float32frombits(uint32(1+rng.Intn(0x7fffff)) | uint32(rng.Intn(2))<<31)
		case c < 9:
			v[i] = (rng.Float32()*2 - 1) * 3.3e38
		case c < 33:
			v[i] = float32(math.Copysign(0, float64(rng.Intn(2))-0.5))
		default:
			v[i] = rng.Float32() - 0.5
		}
	}
	if n > 0 {
		v[rng.Intn(n)] = float32(math.Inf(1))
		v[rng.Intn(n)] = float32(math.Inf(-1))
		v[rng.Intn(n)] = math.Float32frombits(0x7fc00000 | uint32(rng.Intn(1<<22)))
	}
	return v
}

// gemmAddLoop is GemmAddSegmented's specification: one GemmAdd per
// segment, in order.
func gemmAddLoop(dst, a, b View, seg int) {
	for s := 0; s < a.Cols/seg; s++ {
		GemmAdd(dst, a.ColRange(s*seg, (s+1)*seg), b.T().ColRange(s*seg, (s+1)*seg).T())
	}
}

// GemmAddSegmented gives the bits of the GemmAdd loop it replaces on every
// variant: every row count that leaves a ragged A edge and the conv weight
// gradients' 27 and 32, every column count to 33 and the 216 and 288 of the
// late convolutions, segments of 1, 3, 4, 16, 256 and 300 steps, B read
// transposed (the tape) and strided in place. Reductions long enough to
// span several packed chunks of about gemmChunkSteps steps — 3 and 300 do
// not divide 256 — check that a chunk ends between segments.
func TestGemmAddSegmentedMatchesGemmAddLoop(t *testing.T) {
	type tcase struct{ m, n, seg, nseg int }
	segs := []int{1, 3, 4, 16, 256, 300}
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 32}
	var ns []int
	for n := 1; n <= 33; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 216, 288)
	var cases []tcase
	cnt := 0
	for _, m := range ms {
		for _, n := range ns {
			seg := segs[cnt%len(segs)]
			nseg := 1 + cnt/len(segs)%3
			if seg >= 256 && m*n > 256 {
				nseg = 1
			}
			cases = append(cases, tcase{m, n, seg, nseg})
			cnt++
		}
	}
	for _, seg := range segs {
		for _, mn := range [][2]int{{5, 27}, {8, 72}, {32, 216}} {
			cases = append(cases, tcase{mn[0], mn[1], seg, 2*gemmChunkSteps/seg + 1})
		}
	}
	if testing.Short() || raceEnabled {
		var some []tcase
		for i := 0; i < len(cases); i += 5 {
			some = append(some, cases[i])
		}
		cases = some
	}
	rng := NewRNG(83)
	defer func(v gemmVariant) { gemmActive = v }(gemmActive)
	for i, c := range cases {
		k := c.seg * c.nseg
		av, bv, c0 := segVec(rng, c.m*k), segVec(rng, k*c.n), segVec(rng, c.m*c.n)
		pad := i % 3
		a := embed(av, c.m, k, false, pad)
		for _, transB := range []bool{true, false} {
			b := embed(bv, k, c.n, transB, pad+1)
			gemmActive = gemmPortable
			want := embed(c0, c.m, c.n, false, pad)
			gemmAddLoop(want, a, b, c.seg)
			for _, v := range gemmVariants() {
				gemmActive = v
				got := embed(c0, c.m, c.n, false, pad)
				GemmAddSegmented(got, a, b, c.seg)
				for j := range got.Data {
					if !sameBits(got.Data[j], want.Data[j]) {
						t.Fatalf("%dx%d, %d segments of %d, transB=%v, %s: storage element %d = %#x, GemmAdd loop %#x",
							c.m, c.n, c.nseg, c.seg, transB, v.name, j, math.Float32bits(got.Data[j]), math.Float32bits(want.Data[j]))
					}
				}
			}
		}
	}
}

func TestGemmAddSegmentedValidation(t *testing.T) {
	mat := func(r, c int) View { return NewMat(r, c).View() }
	for _, seg := range []int{0, -1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("segment %d of a 6-step reduction: expected panic", seg)
				}
			}()
			GemmAddSegmented(mat(2, 2), mat(2, 6), mat(6, 2), seg)
		}()
	}
	// No steps, no segments: dst keeps its bits, −0 included.
	dst := mat(1, 2)
	dst.Data[0] = float32(math.Copysign(0, -1))
	GemmAddSegmented(dst, mat(1, 0), mat(0, 2), 3)
	if math.Float32bits(dst.Data[0]) != 0x80000000 {
		t.Errorf("an empty segmented product changed dst to %v", dst.Data[0])
	}
}

func TestGemmValidation(t *testing.T) {
	mat := func(r, c int) View { return NewMat(r, c).View() }
	short := mat(2, 2)
	short.Data = short.Data[:3]
	colMajor := mat(2, 2).T()
	cases := map[string]func(){
		"inner":       func() { Gemm(mat(2, 2), mat(2, 3), mat(4, 2)) },
		"rows":        func() { Gemm(mat(3, 2), mat(2, 3), mat(3, 2)) },
		"cols":        func() { Gemm(mat(2, 3), mat(2, 3), mat(3, 2)) },
		"storage":     func() { Gemm(mat(2, 2), short, mat(2, 2)) },
		"dst strides": func() { Gemm(colMajor, mat(2, 2), mat(2, 2)) },
		"col range":   func() { mat(2, 2).ColRange(1, 3) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	// Degenerate shapes are not errors.
	dst := mat(2, 3)
	Fill(dst.Data, 7)
	Gemm(dst, mat(2, 0), mat(0, 3))
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatalf("k=0 Gemm must clear dst, left %v", v)
		}
	}
	Fill(dst.Data, 7)
	GemmAdd(dst, mat(2, 0), mat(0, 3))
	if dst.Data[0] != 7 {
		t.Error("k=0 GemmAdd must leave dst alone")
	}
	Gemm(mat(0, 3), mat(0, 2), mat(2, 3))
}

func TestViewColRangeAndTranspose(t *testing.T) {
	m := MatFrom(2, 3, Vec{1, 2, 3, 4, 5, 6})
	v := m.View().ColRange(1, 3)
	if v.Rows != 2 || v.Cols != 2 || v.Data[0] != 2 || v.Data[v.RowStride+1] != 6 {
		t.Errorf("ColRange view %+v", v)
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.Data[2*tr.RowStride+1*tr.ColStride] != 6 {
		t.Errorf("transposed view %+v", tr)
	}
	if e := m.View().ColRange(3, 3); e.Cols != 0 {
		t.Errorf("empty ColRange %+v", e)
	}
}

func TestGemmSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; run without -race")
	}
	rng := NewRNG(59)
	a, b, w := randMat(rng, 16, 27), randMat(rng, 27, 64), randMat(rng, 33, 27)
	dst, dstW := NewMat(16, 64), NewMat(16, 33)
	f := func() {
		MatMul(dst, a, b)
		MatMulABT(dstW, a, w)
		GemmAdd(dst.View(), a.View(), b.View())
		GemmAddSegmented(dstW.View(), a.View(), w.T(), 9)
	}
	f()
	if n := testing.AllocsPerRun(20, f); n != 0 {
		t.Errorf("%v allocations per run", n)
	}
}

// BenchmarkMatMul times the three wrappers on the shapes training issues:
// the reduced vgg16's convolutions lowered over a batch of 16 (forward a×b,
// column gradient aᵀ×b, one sample's weight gradient a×bᵀ), the reduced
// lstm's gate products, and the 256³ multiply the repository benchmark
// reports as tensor.matmul_gflops.
func BenchmarkMatMul(b *testing.B) {
	type shape struct {
		form    string
		m, n, k int
	}
	shapes := []shape{{"AB", 256, 256, 256}}
	for _, c := range [][3]int{{8, 27, 256}, {16, 72, 64}, {24, 144, 16}, {24, 216, 16}, {32, 216, 4}, {32, 288, 4}} {
		outC, kk, ohw := c[0], c[1], c[2]
		shapes = append(shapes,
			shape{"AB", outC, 16 * ohw, kk},
			shape{"ATB", kk, 16 * ohw, outC},
			shape{"ABT", outC, kk, ohw})
	}
	shapes = append(shapes,
		shape{"ABT", 16, 128, 16}, shape{"ABT", 16, 128, 32}, shape{"ABT", 16, 64, 32},
		shape{"ATB", 128, 16, 16}, shape{"ATB", 128, 32, 16}, shape{"AB", 16, 16, 128}, shape{"AB", 16, 32, 128})
	rng := NewRNG(1)
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%s-%dx%dx%d", s.form, s.m, s.n, s.k), func(b *testing.B) {
			dst := NewMat(s.m, s.n)
			var x, y *Mat
			var f func(dst, a, b *Mat)
			switch s.form {
			case "AB":
				x, y, f = randMat(rng, s.m, s.k), randMat(rng, s.k, s.n), MatMul
			case "ATB":
				x, y, f = randMat(rng, s.k, s.m), randMat(rng, s.k, s.n), MatMulATB
			case "ABT":
				x, y, f = randMat(rng, s.m, s.k), randMat(rng, s.n, s.k), MatMulABT
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f(dst, x, y)
			}
			b.ReportMetric(2*float64(s.m)*float64(s.n)*float64(s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// Every variant's panel packer writes pack32's panels bit for bit — a copy
// of each operand element, +0 in the padding lanes — and nothing outside
// them: A and B panel widths, every lane count from 1 to 17 (a whole
// operand, panel by panel, as the driver packs it), reductions of 1, 3, 4,
// 5 and 256 steps (the vector packer moves four steps at a time), lanes
// contiguous along the reduction (the transposed operand of every a·bᵀ
// product) and strided sources, with NaN payloads, a signalling NaN, ±Inf,
// −0 and subnormal elements.
func TestPackPanelMatchesPortable(t *testing.T) {
	special := []uint32{
		0x7fc00000, 0xffc12345, 0x7f800001, // NaNs: quiet, with payload, signalling
		0x7f800000, 0xff800000, 0x80000000, 0, // ±Inf, −0, +0
		0x00000001, 0x807fffff, 0x7f7fffff, // subnormals, the largest finite
	}
	const guard = 9
	const sentinel = 0x7fbadbad // a signalling NaN no packer writes
	rng := NewRNG(71)
	for _, v := range gemmVariants() {
		for _, width := range []int{gemmMR, v.nr} {
			for n := 1; n <= 17; n++ {
				for _, k := range []int{1, 3, 4, 5, 256} {
					layouts := []struct {
						name   string
						ls, ss int
					}{
						{"lanes contiguous", k + 3, 1},
						{"steps contiguous", 1, n + 3},
						{"both strided", 2*k + 1, 2},
					}
					for _, lay := range layouts {
						src := make([]float32, (n-1)*lay.ls+(k-1)*lay.ss+1)
						for i := range src {
							if rng.Intn(3) == 0 {
								src[i] = math.Float32frombits(special[rng.Intn(len(special))])
							} else {
								src[i] = rng.Norm()
							}
						}
						panels := (n + width - 1) / width
						want, got := make([]float32, panels*k*width+2*guard), make([]float32, panels*k*width+2*guard)
						for i := range want {
							want[i], got[i] = math.Float32frombits(sentinel), math.Float32frombits(sentinel)
						}
						for j := 0; j < n; j += width {
							off := guard + j*k
							lanes := min(width, n-j)
							pack32(want[off:off+k*width], width, src[j*lay.ls:], lanes, k, lay.ls, lay.ss)
							packPanel(v.id, got[off:], width, src[j*lay.ls:], lanes, k, lay.ls, lay.ss)
						}
						for i := range want {
							if w, g := math.Float32bits(want[i]), math.Float32bits(got[i]); w != g {
								t.Fatalf("%s width %d, %d lanes, k %d, %s: element %d = %#x, pack32 %#x",
									v.name, width, n, k, lay.name, i, g, w)
							}
						}
					}
				}
			}
		}
	}
}
