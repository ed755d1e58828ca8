package nn

import (
	"bytes"
	"strings"
	"testing"

	"a2sgd/internal/tensor"
)

func ckNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	return NewNetwork(NewLinear(rng, 4, 3), NewReLU(), NewLinear(rng, 3, 2))
}

// sameNameNet has two layers of one shape, so two tensors carry each name:
// only a tensor's position tells them apart.
func sameNameNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	return NewNetwork(NewLinear(rng, 3, 3), NewReLU(), NewLinear(rng, 3, 3))
}

func TestCheckpointRoundTrip(t *testing.T) {
	for name, build := range map[string]func(uint64) *Network{"distinct names": ckNet, "shared names": sameNameNet} {
		src := build(1)
		var buf bytes.Buffer
		if err := SaveParams(&buf, src.Params()); err != nil {
			t.Fatal(err)
		}
		dst := build(99) // different init
		loaded, err := LoadParams(&buf, dst.Params())
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded) != len(src.Params()) {
			t.Fatalf("%s: loaded %d tensors, want %d", name, len(loaded), len(src.Params()))
		}
		for i, p := range src.Params() {
			for j, v := range p.W {
				if dst.Params()[i].W[j] != v {
					t.Fatalf("%s: tensor %d %s differs at %d after load", name, i, p.Name, j)
				}
			}
		}
	}
}

func TestCheckpointLSTM(t *testing.T) {
	src := NewDeepLSTMLM(tensor.NewRNG(3), 10, 4, 6, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := NewDeepLSTMLM(tensor.NewRNG(77), 10, 4, 6, 2)
	if _, err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	toks := [][]int{{1, 2, 3, 4}}
	if a, b := src.Forward(toks, false), dst.Forward(toks, false); a != b {
		t.Fatalf("loss differs after restore: %v vs %v", a, b)
	}
}

func TestCheckpointBadMagic(t *testing.T) {
	_, err := LoadParams(strings.NewReader("NOPE----"), nil)
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	src := ckNet(5)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[20] ^= 0xff // flip bits mid-stream
	_, err := LoadParams(bytes.NewReader(data), ckNet(5).Params())
	if err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestCheckpointTruncationDetected(t *testing.T) {
	src := ckNet(6)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadParams(bytes.NewReader(data), ckNet(6).Params()); err == nil {
		t.Fatal("truncation not detected")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	src := ckNet(7)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	// Model with different widths: same layer names? Linear(4→3) vs (4→5)
	// produce different names, so the mismatch is "no matching parameter".
	rng := tensor.NewRNG(8)
	other := NewNetwork(NewLinear(rng, 4, 5), NewReLU(), NewLinear(rng, 5, 2))
	if _, err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("shape/name mismatch not detected")
	}
	// The same tensors in another order: every name is present, no position
	// matches.
	swapped := NewNetwork(NewLinear(rng, 3, 2), NewLinear(rng, 4, 3))
	if _, err := LoadParams(bytes.NewReader(buf.Bytes()), swapped.Params()); err == nil {
		t.Fatal("tensors stored in another order were loaded by name")
	}
}

func TestCheckpointUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(ckMagic)
	_ = writeU32(&buf, 999)
	_ = writeU32(&buf, 0)
	if _, err := LoadParams(bytes.NewReader(buf.Bytes()), nil); err == nil {
		t.Fatal("version check missing")
	}
}
