package compress

import (
	"math"
	"testing"

	"a2sgd/internal/tensor"
)

// wordsEqual compares payload words by bit pattern: the float32 stream
// carries bit-cast integers, some of which happen to be NaN patterns where
// float equality is always false.
func wordsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// The Payload ownership contract (compress.go): Encode's result aliases
// instance scratch and is valid until the next Encode on that instance;
// callers that retain a payload copy it. These tests pin the three ways the
// contract could break: a retained copy going stale, two instances sharing
// scratch (Bucketed must never hand out aliasing payloads), and history-
// dependent scratch corruption (a recycled buffer leaking a previous step's
// bits into a later payload).

// aliasAlgos is every builtin leaf algorithm with a non-trivial payload.
var aliasAlgos = []string{"topk", "gaussiank", "qsgd", "qsgd-elias"}

func buildNamed(t *testing.T, name string, n int, seed uint64) Algorithm {
	t.Helper()
	o := DefaultOptions(n)
	o.Seed = seed
	a, err := Build(&Spec{Name: name}, o)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestPayloadCopySurvivesNextEncode: a caller that copies a payload (the
// documented retention path) gets data that later Encodes on the same
// instance cannot corrupt, and that still decodes correctly even after the
// instance's scratch has been recycled. QSGD is the decode witness: its
// retained stream must decode to the same dense vector before and after two
// further Encodes reuse the word scratch.
func TestPayloadCopySurvivesNextEncode(t *testing.T) {
	const n = 4096
	for _, name := range aliasAlgos {
		alg := buildNamed(t, name, n, 5)
		g1 := randGrad(101, n)
		g2 := randGrad(102, n)
		p1 := alg.Encode(g1)
		c1 := append([]float32(nil), p1.Data...)
		p2 := alg.Encode(g2)
		// The second payload may reuse the first's backing memory — that is
		// the contract — but the caller's copy must live on its own array.
		if len(p2.Data) > 0 && len(c1) > 0 && &p2.Data[0] == &c1[0] {
			t.Fatalf("%s: caller copy aliases instance scratch", name)
		}
		// Re-encode g1 on a fresh instance: its payload must equal the copy,
		// proving the copy is the true step-1 encoding, not scratch residue.
		fresh := buildNamed(t, name, n, 5)
		q1 := fresh.Encode(g1)
		if len(q1.Data) != len(c1) {
			t.Fatalf("%s: retained copy length %d, fresh encode %d", name, len(c1), len(q1.Data))
		}
		if i, ok := wordsEqual(c1, q1.Data); !ok {
			t.Fatalf("%s: retained copy corrupted at word %d", name, i)
		}
	}

	// Decode witness: a retained QSGD stream decodes identically after the
	// instance's decode scratch has been through other streams.
	o := DefaultOptions(n)
	o.Seed = 5
	q := NewQSGD(o)
	g1, g2 := randGrad(103, n), randGrad(104, n)
	stream := append([]float32(nil), q.Encode(g1).Data...)
	want := make([]float32, n)
	q.Decode(stream, want)
	wantCopy := append([]float32(nil), want...)
	q.Encode(g2) // recycle encode scratch
	other := append([]float32(nil), q.Encode(g2).Data...)
	q.Decode(other, want) // recycle decode scratch with a different stream
	got := make([]float32, n)
	q.Decode(stream, got)
	if i, ok := wordsEqual(got, wantCopy); !ok {
		t.Fatalf("qsgd: retained stream decoded differently at %d after scratch reuse", i)
	}
}

// TestBucketedBucketsDontAliasScratch: Bucketed builds one instance per
// bucket, so encoding bucket j must never move or modify bucket i's live
// payload — the overlap pipeline holds several buckets' payloads in flight
// at once.
func TestBucketedBucketsDontAliasScratch(t *testing.T) {
	const n, buckets = 4096, 4
	bounds := make([]int, buckets+1)
	for i := range bounds {
		bounds[i] = i * n / buckets
	}
	for _, name := range aliasAlgos {
		bk := NewBucketed(bounds, func(b, bn int) Algorithm {
			return buildNamed(t, name, bn, uint64(b+1))
		})
		g := randGrad(55, n)
		payloads := make([]Payload, buckets)
		snaps := make([][]float32, buckets)
		var bv tensor.VecView
		for b := 0; b < buckets; b++ {
			payloads[b] = bk.EncodeBucketView(b, bv.Reset1(g[bounds[b]:bounds[b+1]]))
			snaps[b] = append([]float32(nil), payloads[b].Data...)
		}
		// After all buckets encoded, every earlier live payload must still
		// match its snapshot (no cross-bucket scratch sharing)...
		for b := 0; b < buckets; b++ {
			if len(payloads[b].Data) != len(snaps[b]) {
				t.Fatalf("%s: bucket %d payload resized by later buckets", name, b)
			}
			if i, ok := wordsEqual(payloads[b].Data, snaps[b]); !ok {
				t.Fatalf("%s: bucket %d payload corrupted at %d by a later bucket's encode", name, b, i)
			}
		}
		// ...and no two non-empty payloads may share backing memory.
		for a := 0; a < buckets; a++ {
			for b := a + 1; b < buckets; b++ {
				if len(payloads[a].Data) > 0 && len(payloads[b].Data) > 0 &&
					&payloads[a].Data[0] == &payloads[b].Data[0] {
					t.Fatalf("%s: buckets %d and %d alias one scratch buffer", name, a, b)
				}
			}
		}
	}
}

// TestEncodeReplayDeterministicUnderReuse is the fuzz-style reuse check: a
// multi-step encode sequence on one (scratch-recycling) instance must be
// bitwise identical to the same sequence on a fresh instance — any stale
// bits leaking from a recycled buffer into a later payload would diverge.
func TestEncodeReplayDeterministicUnderReuse(t *testing.T) {
	const n, steps = 2048, 6
	for _, name := range aliasAlgos {
		grads := make([][]float32, steps)
		for s := range grads {
			grads[s] = randGrad(uint64(200+s), n)
		}
		run := func() [][]float32 {
			alg := buildNamed(t, name, n, 9)
			out := make([][]float32, steps)
			for s, g := range grads {
				out[s] = append([]float32(nil), alg.Encode(g).Data...)
			}
			return out
		}
		a, b := run(), run()
		for s := range a {
			if len(a[s]) != len(b[s]) {
				t.Fatalf("%s: step %d payload lengths differ: %d vs %d", name, s, len(a[s]), len(b[s]))
			}
			if i, ok := wordsEqual(a[s], b[s]); !ok {
				t.Fatalf("%s: step %d payload diverged at word %d under scratch reuse", name, s, i)
			}
		}
	}
}
