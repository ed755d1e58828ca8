package compress

import (
	"fmt"
	"math"
	"testing"

	"a2sgd/internal/tensor"
)

// Fuzz targets: the decoders consume bytes that crossed a network, so they
// must never panic or loop on arbitrary input. Under plain `go test` these
// run their seed corpus; `go test -fuzz=FuzzX` explores further.

func bytesToF32(data []byte) []float32 {
	out := make([]float32, len(data)/4)
	for i := range out {
		bits := uint32(data[4*i]) | uint32(data[4*i+1])<<8 |
			uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24
		out[i] = math.Float32frombits(bits)
	}
	return out
}

func FuzzQSGDDecode(f *testing.F) {
	// Seed with a genuine encoding and a few corruptions.
	q := NewQSGD(DefaultOptions(64))
	g := make([]float32, 64)
	tensor.NewRNG(1).NormVec(g, 0, 1)
	p := q.Encode(g)
	seed := make([]byte, 4*len(p.Data))
	for i, v := range p.Data {
		bits := math.Float32bits(v)
		seed[4*i] = byte(bits)
		seed[4*i+1] = byte(bits >> 8)
		seed[4*i+2] = byte(bits >> 16)
		seed[4*i+3] = byte(bits >> 24)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(seed[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		words := bytesToF32(data)
		if len(words) == 0 {
			return
		}
		dst := make([]float32, 64)
		dec := NewQSGD(DefaultOptions(64))
		// Must not panic for any stream whose word count covers the
		// fixed-width layout; shorter streams are rejected by length checks
		// upstream, so pad to the expected size here.
		need := 1 + dec.encodedWords(64)
		for len(words) < need {
			words = append(words, 0)
		}
		dec.Decode(words[:need], dst)
	})
}

func FuzzQSGDEliasDecode(f *testing.F) {
	e := NewQSGDElias(DefaultOptions(32))
	g := make([]float32, 32)
	tensor.NewRNG(2).NormVec(g, 0, 1)
	p := e.Encode(g)
	seed := make([]byte, 4*len(p.Data))
	for i, v := range p.Data {
		bits := math.Float32bits(v)
		seed[4*i] = byte(bits)
		seed[4*i+1] = byte(bits >> 8)
		seed[4*i+2] = byte(bits >> 16)
		seed[4*i+3] = byte(bits >> 24)
	}
	f.Add(seed)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 16)) // all-zero bit stream (gamma bail-out path)
	f.Fuzz(func(t *testing.T, data []byte) {
		words := bytesToF32(data)
		if len(words) < 2 {
			return
		}
		dst := make([]float32, 32)
		NewQSGDElias(DefaultOptions(32)).Decode(words, dst)
	})
}

func FuzzEliasGammaStream(f *testing.F) {
	f.Add(uint32(1), uint32(100), uint32(1<<20))
	f.Add(uint32(7), uint32(8), uint32(9))
	f.Fuzz(func(t *testing.T, a, b, c uint32) {
		vals := []uint32{a | 1, b | 1, c | 1} // keep positive
		var w bitWriter
		for _, v := range vals {
			eliasGammaWrite(&w, v)
		}
		r := &bitReader{words: w.words}
		for _, want := range vals {
			if got := eliasGammaRead(r); got != want {
				t.Fatalf("round trip %d -> %d", want, got)
			}
		}
	})
}

// specNodes counts the Spec and Arg nodes of a parse tree.
func specNodes(s *Spec) int {
	n := 1 + len(s.Args)
	for _, a := range s.Args {
		if a.Value.Spec != nil {
			n += specNodes(a.Value.Spec)
		}
	}
	return n
}

// FuzzParseRoundTrip: the spec grammar takes strings from flags, job files
// and configuration, so on arbitrary input Parse must return or fail without
// panicking; whatever it accepts prints canonically (Parse(s.String())
// succeeds and prints the same string), and neither the tree nor its printed
// form outgrows the input — every node consumed at least one byte, and
// canonical form adds at most a space per comma. Whatever ParsePolicy
// accepts rebuilds from its Name() to the same Name() and Specs(), since
// that name is what results, schedules and sweep JSON record.
func FuzzParseRoundTrip(f *testing.F) {
	for _, seed := range []string{
		// README, the examples and the CI file: every spec and policy.
		"a2sgd", "dense", "topk", "a2sgd-noef", "a2sgd-onemean", "auto",
		"topk(density=0.01)", "gaussiank(density=0.001)", "qsgd(levels=8)",
		"topk(density=0.05)", "gaussiank(density=0.05)", "qsgd",
		"periodic(qsgd(levels=8), interval=4)",
		"uniform(dense)", "uniform(a2sgd)",
		"mixed(big=a2sgd, small=dense, threshold=64KiB)",
		"mixed(big=a2sgd, small=dense, threshold=16KiB)",
		"mixed(big=a2sgd, small=dense, threshold=8KiB)",
		"uniform(topk(density=0.01))", "uniform(qsgd)",
		"mixed(big=topk(density=0.01), small=dense, threshold=1KiB)",
		"mixed(big=qsgd(levels=8), small=dense)",
		// Used to build with a negative threshold whose name did not parse.
		"mixed(big=topk(density=0.01), small=dense, threshold=1e30)",
		"auto(a2sgd, dense)",
		// Shapes the grammar must reject or normalize.
		"", "a()", "a(", "a)", "a(b,,c)", "a(k=1, k=2)", "a(=1)", " a ( b = c ( d ) ) ",
		"a(b(c(d(e(f)))))", "é(x)", "a(b) c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		canon := s.String()
		if n := specNodes(s); n > len(src) {
			t.Fatalf("Parse(%q): %d nodes from %d bytes", src, n, len(src))
		}
		if len(canon) > 2*len(src) {
			t.Fatalf("Parse(%q) prints %d bytes: %q", src, len(canon), canon)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canonical form %q does not parse: %v", src, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q) prints %q, which re-prints as %q", src, canon, got)
		}
		pol, err := ParsePolicy(src)
		if err != nil {
			return
		}
		name := pol.Name()
		back, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) accepted, but its name %q does not build: %v", src, name, err)
		}
		if got := back.Name(); got != name {
			t.Fatalf("ParsePolicy(%q) is named %q, which rebuilds as %q", src, name, got)
		}
		if a, b := fmt.Sprint(pol.Specs()), fmt.Sprint(back.Specs()); a != b {
			t.Fatalf("ParsePolicy(%q) picks from %s, its name %q from %s", src, a, name, b)
		}
	})
}
