package main

import (
	"errors"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"

	"a2sgd/internal/compress"
)

// TestExperimentNames: the -experiment list is the set main runs, and a name
// outside it exits 2 listing the valid ones instead of running nothing.
func TestExperimentNames(t *testing.T) {
	if os.Getenv("A2SGDBENCH_MAIN") != "" {
		os.Args = []string{"a2sgdbench", "-experiment", os.Getenv("A2SGDBENCH_MAIN")}
		main()
		return
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	for _, m := range regexp.MustCompile(`\brun\("(\w+)"`).FindAllStringSubmatch(string(src), -1) {
		ran = append(ran, m[1])
	}
	if want := append(slices.Clone(ran), "all"); !slices.Equal(experiments, want) {
		t.Errorf("experiments = %q, main runs %q", experiments, want)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestExperimentNames$")
	cmd.Env = append(os.Environ(), "A2SGDBENCH_MAIN=fig33")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-experiment fig33: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown experiment "fig33"`) || !strings.Contains(string(out), strings.Join(experiments, ", ")) {
		t.Errorf("-experiment fig33 should name the typo and list the valid names:\n%s", out)
	}
}

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
