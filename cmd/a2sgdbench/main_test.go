package main

import (
	"slices"
	"testing"

	"a2sgd/internal/compress"
)

func TestSplitSpecs(t *testing.T) {
	cases := []struct {
		in         string
		want       []string
		unbalanced bool
	}{
		{in: "", want: nil},
		{in: "dense,a2sgd", want: []string{"dense", "a2sgd"}},
		{in: "periodic(topk, interval=2),a2sgd", want: []string{"periodic(topk, interval=2)", "a2sgd"}},
		{in: "periodic(qsgd(levels=8, seed=3), interval=4), topk(density=0.01)", want: []string{"periodic(qsgd(levels=8, seed=3), interval=4)", "topk(density=0.01)"}},
		{in: "a2sgd,mixed(big=a2sgd, small=dense, threshold=64KiB)", want: []string{"a2sgd", "mixed(big=a2sgd, small=dense, threshold=64KiB)"}},
		{in: "  dense ,  topk(density=0.05)  ", want: []string{"dense", "topk(density=0.05)"}},
		{in: "a2sgd,qsgd(levels=4),", want: []string{"a2sgd", "qsgd(levels=4)"}},
		{in: ",,dense", want: []string{"dense"}},
		// Unbalanced input is not this helper's to reject: the tail stays
		// whole so the grammar names the offset.
		{in: "periodic(topk, interval=2", want: []string{"periodic(topk, interval=2"}, unbalanced: true},
	}
	for _, c := range cases {
		got := splitSpecs(c.in)
		if !slices.Equal(got, c.want) {
			t.Errorf("splitSpecs(%q) = %q, want %q", c.in, got, c.want)
		}
		// Every entry of a balanced list is one spec of the grammar.
		for _, e := range got {
			if _, err := compress.Parse(e); err != nil && !c.unbalanced {
				t.Errorf("splitSpecs(%q) entry %q: %v", c.in, e, err)
			}
		}
	}
}
