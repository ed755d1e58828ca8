package compress

import (
	"strings"
	"testing"
)

func TestParseFormatRoundTrip(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical form
	}{
		{"dense", "dense"},
		{"topk(density=0.01)", "topk(density=0.01)"},
		{"  topk( density = 0.01 )", "topk(density=0.01)"},
		{"qsgd(levels=8)", "qsgd(levels=8)"},
		{"periodic(dense, interval=4)", "periodic(dense, interval=4)"},
		{"periodic(qsgd(levels=8), interval=4)", "periodic(qsgd(levels=8), interval=4)"},
		{"mixed(big=a2sgd, small=dense, threshold=64KiB)", "mixed(big=a2sgd, small=dense, threshold=64KiB)"},
		{"uniform( topk(density=0.05) )", "uniform(topk(density=0.05))"},
		{"dense()", "dense"},
	}
	for _, c := range cases {
		s, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := s.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
		// Reparsing the canonical form is a fixed point.
		s2, err := Parse(s.String())
		if err != nil {
			t.Errorf("reparse %q: %v", s.String(), err)
			continue
		}
		if s2.String() != s.String() {
			t.Errorf("reformat changed %q -> %q", s.String(), s2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"topk(",
		"topk(density=0.01",
		"topk)",
		"topk(density=)",
		"topk(=0.01)",
		"topk(density=0.01)x",
		"topk(density=0.01, density=0.02)", // duplicate key
		"a b",
		"(dense)",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestUnknownAlgorithmErrorListsUsage(t *testing.T) {
	_, err := ParseBuild("nope", DefaultOptions(16))
	if err == nil {
		t.Fatal("expected error")
	}
	// The error must list every registered name together with its accepted
	// parameters, not bare names only.
	for _, want := range []string{"topk(density=float)", "qsgd(levels=int)", "periodic(inner, interval=int)", "dense"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-algorithm error missing %q:\n%v", want, err)
		}
	}
}

func TestBadParametersRejected(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"topk(density=2)", "out of range"},
		{"topk(density=0)", "out of range"},
		{"topk(density=abc)", "not a float"},
		// NaN fails every range comparison, so it must fail parsing instead.
		{"topk(density=NaN)", "finite"},
		{"gaussiank(density=nan)", "finite"},
		{"topk(density=Inf)", "finite"},
		{"topk(density=-inf)", "finite"},
		{"topk(foo=1)", `unknown parameter "foo"`},
		{"topk(foo=1)", "topk(density=float)"}, // error names the accepted params
		{"dense(x=1)", "unknown parameter"},
		{"qsgd(levels=0)", "out of range"},
		{"qsgd(levels=2.5)", "not an int"},
		{"periodic(dense, interval=0)", "out of range"},
		{"periodic(interval=2)", "takes 1 inner"},
		{"periodic(dense, qsgd, interval=2)", "takes 1 inner"},
		{"topk(density=dense(x=1))", "wants a float"},
	}
	for _, c := range cases {
		_, err := ParseBuild(c.src, DefaultOptions(64))
		if err == nil {
			t.Errorf("ParseBuild(%q): expected error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseBuild(%q) error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestCheckSpecRecursesIntoWrappers(t *testing.T) {
	s, err := Parse("periodic(nope, interval=2)")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSpec(s); err == nil || !strings.Contains(err.Error(), `unknown algorithm "nope"`) {
		t.Errorf("CheckSpec must reject unknown inner algorithms, got %v", err)
	}
}

func TestBuildMatchesDirectConstruction(t *testing.T) {
	o := DefaultOptions(1000)
	o.Density = 0.05
	direct := NewTopK(o)
	viaSpec, err := ParseBuild("topk(density=0.05)", DefaultOptions(1000))
	if err != nil {
		t.Fatal(err)
	}
	g := make([]float32, 1000)
	for i := range g {
		g[i] = float32(i%17) - 8
	}
	pd, ps := direct.Encode(g), viaSpec.Encode(g)
	if pd.Bits != ps.Bits || len(pd.Data) != len(ps.Data) {
		t.Fatalf("spec-built topk differs: %d/%d bits, %d/%d words",
			pd.Bits, ps.Bits, len(pd.Data), len(ps.Data))
	}
	for i := range pd.Data {
		if pd.Data[i] != ps.Data[i] {
			t.Fatalf("payload word %d differs", i)
		}
	}
}

func TestWrapperNestingBuilds(t *testing.T) {
	a, err := ParseBuild("periodic(qsgd(levels=8), interval=4)", DefaultOptions(256))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Name(); got != "qsgd-every4" {
		t.Errorf("Name() = %q", got)
	}
	p, ok := a.(*Periodic)
	if !ok || p.Interval() != 4 {
		t.Fatalf("wrapper not periodic(interval=4): %T", a)
	}
	inner, ok := p.inner.(*QSGD)
	if !ok || inner.Levels() != 8 {
		t.Fatalf("inner not qsgd(levels=8): %T", p.inner)
	}
	// Amortized payload: qsgd payload / 4.
	q := NewQSGD(Options{N: 256, QuantLevels: 8, Seed: 1})
	if want := q.PayloadBytes(256) / 4; a.PayloadBytes(256) != want {
		t.Errorf("amortized payload %d, want %d", a.PayloadBytes(256), want)
	}
}

func TestRegisterRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"", "has space", "par(en"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) must panic", bad)
				}
			}()
			Register(bad, Builder{Build: func(o Options, _ BuildArgs) (Algorithm, error) { return NewDense(o), nil }})
		}()
	}
	// Duplicate registration panics too.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate Register must panic")
			}
		}()
		Register("dense", Builder{Build: func(o Options, _ BuildArgs) (Algorithm, error) { return NewDense(o), nil }})
	}()
}

func TestParseByteSize(t *testing.T) {
	cases := map[string]int64{
		"0":      0,
		"4096":   4096,
		"4096B":  4096,
		"64KiB":  65536,
		"64kib":  65536,
		"1MiB":   1 << 20,
		"1.5MiB": 1572864,
		"2GiB":   2 << 30,
		"1KB":    1000,
		"2MB":    2_000_000,
	}
	for src, want := range cases {
		got, err := ParseByteSize(src)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", src, got, err, want)
		}
	}
	// Non-finite values and sizes past MaxInt64 used to convert to
	// MinInt64 without an error.
	for _, bad := range []string{"", "abc", "-1", "12XiB", "NaN", "nanKiB", "Inf", "+inf", "1e30", "9223372036854775808", "8589934592GiB"} {
		if _, err := ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q): expected error", bad)
		}
	}
	for _, n := range []int64{0, 17, 4096, 65536, 1 << 20, 3 << 30, 5000} {
		back, err := ParseByteSize(FormatByteSize(n))
		if err != nil || back != n {
			t.Errorf("FormatByteSize round trip %d -> %q -> %d, %v", n, FormatByteSize(n), back, err)
		}
	}
}

func TestSignatureAndUsage(t *testing.T) {
	if got := Signature("topk"); got != "topk(density=float)" {
		t.Errorf("Signature(topk) = %q", got)
	}
	if got := Signature("dense"); got != "dense" {
		t.Errorf("Signature(dense) = %q", got)
	}
	if got := Signature("periodic"); got != "periodic(inner, interval=int)" {
		t.Errorf("Signature(periodic) = %q", got)
	}
	usage := Usage()
	if len(usage) != len(Registered()) {
		t.Errorf("Usage/Registered length mismatch: %d vs %d", len(usage), len(Registered()))
	}
}
