package bench

import (
	"fmt"
	"io"

	"a2sgd"
	"a2sgd/internal/stats"
)

// Figure1Result holds the gradient-distribution captures for one model.
type Figure1Result struct {
	Family     string
	Iters      []int
	Histograms []*stats.Histogram
	// PeakFracs[i] is the largest single-bin mass at capture i — the
	// quantitative form of "values converge to the center around zero".
	PeakFracs []float64
}

// Figure1 trains FNN-3 and ResNet-20 on one worker and captures the
// gradient-value histogram at increasing iteration counts, reproducing the
// distribution progression of the paper's Figure 1.
func Figure1(w io.Writer, epochs, stepsPerEpoch int, render bool) ([]Figure1Result, error) {
	if epochs <= 0 {
		epochs = 6
	}
	if stepsPerEpoch <= 0 {
		stepsPerEpoch = 20
	}
	total := epochs * stepsPerEpoch
	iters := []int{0, total / 4, total / 2, total - 1}

	var out []Figure1Result
	for _, fam := range []string{"fnn3", "resnet20"} {
		// The captures are a harness concern, not a training setting: the
		// job's lowered cluster.Config takes them, and a fault-free job trains
		// what a2sgd.Train trains.
		job, err := a2sgd.NewJob(a2sgd.TrainConfig{
			Workers: 1, Family: fam, Spec: "dense",
			Epochs: epochs, StepsPerEpoch: stepsPerEpoch,
			BatchPerWorker: 32, Seed: 11, Momentum: 0.9,
		})
		if err != nil {
			return nil, err
		}
		job.Config.HistIters = iters
		rr, err := job.Run()
		if err != nil {
			return nil, err
		}
		res := rr.Result
		r := Figure1Result{Family: fam, Iters: iters, Histograms: res.Histograms}
		for _, h := range res.Histograms {
			r.PeakFracs = append(r.PeakFracs, h.PeakFrac())
		}
		out = append(out, r)

		fmt.Fprintf(w, "\nFigure 1 (%s): gradient distribution progression\n", fam)
		var rows [][]string
		for i, h := range res.Histograms {
			rows = append(rows, []string{
				fmt.Sprintf("%d", iters[i]),
				fmt.Sprintf("%.4f", h.PeakFrac()),
				fmt.Sprintf("%.5f", centerMass(h, 0.02)),
			})
		}
		table(w, []string{"iteration", "peak-bin frac", "mass in |g|<0.02"}, rows)
		if render && len(res.Histograms) > 0 {
			fmt.Fprintf(w, "\nfinal-iteration histogram (%s):\n%s", fam,
				res.Histograms[len(res.Histograms)-1].Render(60))
		}
	}
	return out, nil
}

// centerMass returns the fraction of values with |x| < eps.
func centerMass(h *stats.Histogram, eps float64) float64 {
	var m float64
	for i := range h.Counts {
		c := h.BinCenter(i)
		if c > -eps && c < eps {
			m += h.Frac(i)
		}
	}
	return m
}
