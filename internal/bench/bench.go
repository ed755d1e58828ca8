// Package bench regenerates every table and figure of the paper's
// evaluation section:
//
//	Figure 1  — gradient-distribution progression (FNN-3, ResNet-20)
//	Figure 2  — compression compute time vs parameter count
//	Figure 3  — convergence accuracy/perplexity per algorithm (+ Figs 6–8,
//	            which are the same experiment at 2/4/16 workers)
//	Figure 4  — average iteration time vs worker count
//	Figure 5  — total training time vs worker count
//	Table 1   — experimental setup
//	Table 2   — synchronization complexities and scaling efficiency
//
// Runners return structured results for tests and render aligned-text
// tables (plus CSV) for humans.
package bench

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"a2sgd/internal/compress"
	_ "a2sgd/internal/core" // registers a2sgd and its ablation variants
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
)

// EvalAlgos is the paper's five-method evaluation set, legend order
// (derived from the shared registry's evaluated list).
var EvalAlgos = compress.Evaluated()

// newAlgo builds an algorithm spec for an n-parameter model with the
// paper's default hyperparameters, straight through the registry. Any
// registered spec works, so sweeps can take full specs ("qsgd(levels=8)")
// as well as bare names.
func newAlgo(spec string, n int, seed uint64) compress.Algorithm {
	o := compress.DefaultOptions(n)
	o.Seed = seed
	a, err := compress.ParseBuild(spec, o)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return a
}

// specWithDensity lowers a sparsifier-density override onto a spec string,
// in the grammar itself: the parameter is attached wherever an algorithm in
// the spec tree — the root or a wrapped inner spec — declares "density" in
// its registered schema and does not already carry one (an explicit
// density= always wins). Non-sparsifiers pass through untouched, so one
// override can apply to a mixed algorithm list, and wrappers forward it to
// their inner algorithms ("periodic(topk, interval=2)" trains topk at the
// override), matching how the deleted Options.Density plumbing behaved.
func specWithDensity(spec string, density float64) string {
	if density <= 0 {
		return spec
	}
	s, err := compress.Parse(spec)
	if err != nil {
		panic("bench: " + err.Error())
	}
	applyDensity(s, strconv.FormatFloat(density, 'g', -1, 64))
	return s.String()
}

// applyDensity walks a spec tree, attaching density= to every algorithm
// whose schema accepts it (unknown names pass through for ParseBuild's
// usage-listing error). Positional bare-name arguments are inner algorithm
// specs; they are promoted to nested specs only when the override applies.
func applyDensity(s *compress.Spec, density string) {
	if b, ok := compress.LookupBuilder(s.Name); ok {
		for _, p := range b.Params {
			if p.Name == "density" {
				s.SetKeyed("density", density)
			}
		}
	}
	for i := range s.Args {
		a := &s.Args[i]
		if a.Key != "" {
			continue
		}
		if a.Value.Spec != nil {
			applyDensity(a.Value.Spec, density)
			continue
		}
		inner, err := a.Value.AsSpec()
		if err != nil {
			continue
		}
		if _, ok := compress.LookupBuilder(inner.Name); !ok {
			continue
		}
		applyDensity(inner, density)
		if len(inner.Args) > 0 {
			a.Value = compress.Value{Spec: inner}
		}
	}
}

// sameBits reports whether two runs' final weights (cluster.Result's
// FinalParams) are equal bit for bit — the matrices' fingerprint of "nothing
// moved".
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// table renders rows as an aligned text table.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// csvOut renders rows as CSV (for plotting).
func csvOut(w io.Writer, header []string, rows [][]string) {
	fmt.Fprintln(w, strings.Join(header, ","))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// Table1 prints the experimental-setup table (paper Table 1) with this
// repository's reduced-scale counterparts alongside.
func Table1(w io.Writer) error {
	type row struct {
		model, dataset, batch, lr, policy string
	}
	meta := map[string]row{
		"fnn3":     {"FNN-3", "MNIST → synthetic Gaussian clusters", "128", "0.01", "LS(1x)+GW+PD"},
		"vgg16":    {"VGG-16", "CIFAR10 → synthetic textures", "128", "0.1", "LS(1.5x)+GW+PD+LARS"},
		"resnet20": {"ResNet-20", "CIFAR10 → synthetic textures", "128", "0.1", "LS(1x)+GW+PD"},
		"lstm":     {"LSTM-PTB", "PTB → synthetic Zipf-Markov stream", "128", "22", "PD"},
	}
	var rows [][]string
	for _, fam := range models.Families() {
		m := meta[fam]
		paperN, err := models.PaperParamCount(fam)
		if err != nil {
			return err
		}
		reduced, err := models.New(models.Config{Family: fam, Seed: 1, Reduced: true})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			m.model, m.dataset, fmt.Sprintf("%d", paperN),
			fmt.Sprintf("%d", reduced.NumParams()), m.batch, m.lr, m.policy,
		})
	}
	fmt.Fprintln(w, "Table 1: Experimental Setup (paper #Parameters vs this repo's reduced trainable scale)")
	table(w, []string{"Model", "Dataset", "#Params(paper)", "#Params(reduced)", "Batch", "LR", "Policy"}, rows)
	return nil
}

// fabricOrDefault returns IB100 when f is zero-valued.
func fabricOrDefault(f netsim.Fabric) netsim.Fabric {
	if f.Alpha == 0 && f.Beta == 0 {
		return netsim.IB100()
	}
	return f
}
