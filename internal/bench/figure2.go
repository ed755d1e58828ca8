package bench

import (
	"fmt"
	"io"
	"time"

	"a2sgd/internal/tensor"
)

// Figure2Point is one (algorithm, n) compute-time measurement.
type Figure2Point struct {
	Algo    string
	N       int
	Seconds float64
}

// Figure2Algos are the four methods whose local compute the paper's
// Figure 2 compares (dense has no compression step).
var Figure2Algos = []string{"topk", "qsgd", "gaussiank", "a2sgd"}

// Figure2 measures the local compression time (the Encode phase only — no
// communication) on random Gaussian gradients of increasing size,
// reproducing the paper's Figure 2 sweep up to 100 M parameters. Each point
// is the fastest of reps timed calls: the least disturbed one, which is what
// the ordering the figure shows is about.
func Figure2(w io.Writer, sizes []int, reps int) ([]Figure2Point, error) {
	if len(sizes) == 0 {
		sizes = []int{1_000_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000, 100_000_000}
	}
	if reps <= 0 {
		reps = 2
	}
	var points []Figure2Point
	rows := make([][]string, 0, len(sizes))
	for _, n := range sizes {
		g := make([]float32, n)
		tensor.NewRNG(uint64(n)).NormVec(g, 0, 0.05)
		row := []string{fmt.Sprintf("%d", n)}
		for _, name := range Figure2Algos {
			alg := newAlgo(name, n, 3)
			// Warm-up run excluded from timing (first TopK call allocates
			// the residual buffers, etc.).
			alg.Encode(g)
			sec := 0.0
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				alg.Encode(g)
				if d := time.Since(t0).Seconds(); r == 0 || d < sec {
					sec = d
				}
			}
			points = append(points, Figure2Point{Algo: name, N: n, Seconds: sec})
			row = append(row, fmt.Sprintf("%.4f", sec))
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(w, "Figure 2: compression compute time (seconds) vs #parameters")
	header := append([]string{"n"}, Figure2Algos...)
	table(w, header, rows)
	fmt.Fprintln(w)
	csvOut(w, header, rows)
	return points, nil
}
