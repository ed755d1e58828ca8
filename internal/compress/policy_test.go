package compress

import (
	"slices"
	"strings"
	"testing"
)

func bucket(idx, params int) BucketInfo {
	return BucketInfo{Index: idx, Params: params, Bytes: int64(4 * params)}
}

func TestUniformPolicy(t *testing.T) {
	p, err := ParsePolicy("uniform(topk(density=0.01))")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "uniform(topk(density=0.01))" {
		t.Errorf("Name() = %q", p.Name())
	}
	for _, b := range []BucketInfo{bucket(0, 10), bucket(3, 1_000_000)} {
		if got := p.SpecFor(b).String(); got != "topk(density=0.01)" {
			t.Errorf("SpecFor(%d) = %q", b.Index, got)
		}
	}
	if len(p.Specs()) != 1 {
		t.Errorf("Specs() = %v", p.Specs())
	}
}

func TestBareAlgorithmSpecIsUniform(t *testing.T) {
	p, err := ParsePolicy("qsgd(levels=8)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "uniform(qsgd(levels=8))" {
		t.Errorf("Name() = %q", p.Name())
	}
}

func TestMixedPolicyThreshold(t *testing.T) {
	p, err := ParsePolicy("mixed(big=topk(density=0.01), small=dense, threshold=1KiB)")
	if err != nil {
		t.Fatal(err)
	}
	// 1 KiB = 1024 bytes = 256 float32 params.
	if got := p.SpecFor(bucket(0, 255)).Name; got != "dense" {
		t.Errorf("small bucket got %q", got)
	}
	if got := p.SpecFor(bucket(1, 256)).Name; got != "topk" { // exactly at threshold: big
		t.Errorf("threshold bucket got %q", got)
	}
	if got := p.SpecFor(bucket(2, 100_000)).Name; got != "topk" {
		t.Errorf("big bucket got %q", got)
	}
	if want := "mixed(big=topk(density=0.01), small=dense, threshold=1KiB)"; p.Name() != want {
		t.Errorf("Name() = %q, want %q", p.Name(), want)
	}
	if len(p.Specs()) != 2 {
		t.Errorf("Specs() = %v", p.Specs())
	}
}

func TestMixedPolicyErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"mixed(big=nope, small=dense)", `unknown algorithm "nope"`},
		{"mixed(foo=dense)", `unknown parameter "foo"`},
		{"mixed(dense)", "keyed arguments only"},
		{"mixed(threshold=abc)", "byte size"},
		// Past MaxInt64 or non-finite: used to wrap to a negative threshold
		// that sent every bucket to big.
		{"mixed(big=topk(density=0.01), small=dense, threshold=1e30)", "byte size"},
		{"mixed(big=dense, small=dense, threshold=NaN)", "byte size"},
		{"mixed(big=dense, small=dense, threshold=Inf)", "byte size"},
		{"mixed(big=topk(density=NaN))", "finite"},
		{"mixed(big=topk(density=9), small=dense)", "out of range"},
	}
	for _, c := range cases {
		_, err := ParsePolicy(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePolicy(%q) error %v, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestMixedPolicySpecValidation(t *testing.T) {
	// Out-of-range parameters inside a policy's branch are caught when the
	// policy is built, not at training time.
	if _, err := ParsePolicy("mixed(big=dense, small=qsgd(levels=0))"); err == nil {
		t.Error("bad small spec must be rejected at policy build")
	}
}

func TestUnknownPolicyErrorListsBoth(t *testing.T) {
	_, err := ParsePolicy("zigzag(a=1)")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"mixed(big=spec, small=spec, threshold=bytes)", "uniform(spec)", "topk(density=float)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-policy error missing %q:\n%v", want, err)
		}
	}
}

// TestPoliciesRegistered: the policy set is closed — uniform and mixed,
// listed by name.
func TestPoliciesRegistered(t *testing.T) {
	want := []string{"mixed(big=spec, small=spec, threshold=bytes)", "uniform(spec)"}
	if got := PolicyUsage(); !slices.Equal(got, want) {
		t.Errorf("PolicyUsage() = %q, want %q", got, want)
	}
}

// TestPolicyDeterminism: SpecFor is a pure function of BucketInfo — repeated
// calls with the same plan agree, which is what makes policy-driven training
// runs reproducible per seed.
func TestPolicyDeterminism(t *testing.T) {
	p, err := ParsePolicy("mixed(big=topk(density=0.01), small=dense, threshold=2KiB)")
	if err != nil {
		t.Fatal(err)
	}
	plan := []BucketInfo{bucket(0, 100), bucket(1, 600), bucket(2, 300), bucket(3, 4000)}
	var first []string
	for trial := 0; trial < 3; trial++ {
		var got []string
		for _, b := range plan {
			got = append(got, p.SpecFor(b).String())
		}
		if trial == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d bucket %d: %q != %q", trial, i, got[i], first[i])
			}
		}
	}
}
