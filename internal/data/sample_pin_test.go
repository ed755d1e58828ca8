package data

import (
	"hash/fnv"
	"math"
	"testing"

	"a2sgd/internal/models"
	"a2sgd/internal/tensor"
)

// sampleDigest hashes 100 consecutive draws of each dataset kind, batch sizes
// and sequence lengths varying so that a reused batch shrinks and grows.
func sampleDigest(draw func(kind string, rng *tensor.RNG, n, seqLen int) models.Batch) uint64 {
	h := fnv.New64a()
	word := func(w uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, kind := range []string{"fnn3", "vgg16", "lstm"} {
		rng := tensor.NewRNG(77)
		for it := 0; it < 100; it++ {
			b := draw(kind, rng, 1+it*7%19, 2+it*5%13)
			word(uint64(b.Size()))
			if b.X != nil {
				for _, v := range b.X.Data {
					word(uint64(math.Float32bits(v)))
				}
			}
			for _, l := range b.Labels {
				word(uint64(l))
			}
			for _, seq := range b.Tokens {
				for _, tok := range seq {
					word(uint64(tok))
				}
			}
		}
	}
	return h.Sum64()
}

// sampleDigestAtParent is sampleDigest over Images.Sample / Text.Sample as
// they were before SampleInto existed (a fresh matrix, label slice and token
// rows per call, the Zipf table rebuilt per Text.Sample): the RNG draws, and
// their order, are pinned to it.
const sampleDigestAtParent = 0xda0a5fa399a127d

func TestSampleIntoMatchesSampleBitwise(t *testing.T) {
	imgs := map[string]*Images{}
	var txt *Text
	for _, fam := range []string{"fnn3", "vgg16", "lstm"} {
		img, tx, err := ForFamily(fam, 5)
		if err != nil {
			t.Fatal(err)
		}
		imgs[fam] = img
		if tx != nil {
			txt = tx
		}
	}
	fresh := sampleDigest(func(kind string, rng *tensor.RNG, n, seqLen int) models.Batch {
		if kind == "lstm" {
			return txt.Sample(rng, n, seqLen)
		}
		return imgs[kind].Sample(rng, n)
	})
	var reused models.Batch // one batch for all 300 draws, images and text alike
	into := sampleDigest(func(kind string, rng *tensor.RNG, n, seqLen int) models.Batch {
		if kind == "lstm" {
			txt.SampleInto(rng, n, seqLen, &reused)
		} else {
			imgs[kind].SampleInto(rng, n, &reused)
		}
		return reused
	})
	if fresh != sampleDigestAtParent || into != sampleDigestAtParent {
		t.Errorf("Sample %#x, SampleInto %#x, recorded %#x", fresh, into, uint64(sampleDigestAtParent))
	}
}

func TestSampleIntoSteadyStateAllocatesNothing(t *testing.T) {
	img, _, _ := ForFamily("vgg16", 1)
	_, txt, _ := ForFamily("lstm", 1)
	rng := tensor.NewRNG(3)
	var ib, tb models.Batch
	f := func() {
		img.SampleInto(rng, 16, &ib)
		txt.SampleInto(rng, 16, 12, &tb)
	}
	f()
	if n := testing.AllocsPerRun(10, f); n != 0 {
		t.Errorf("%v allocations per draw", n)
	}
}
