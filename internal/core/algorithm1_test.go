package core_test

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/core"
	"a2sgd/internal/data"
	"a2sgd/internal/models"
	"a2sgd/internal/tensor"
)

// algorithm1 trains cfg.Workers replicas in one goroutine, one plain loop per
// row of PAPER.md's Algorithm 1, lines 3–6 (dense: the mean of g) per bucket
// [bounds[b], bounds[b+1]). It returns the final weights and rank 0's epochs.
func algorithm1(cfg cluster.Config, spec string, bounds []int) ([]float32, []cluster.EpochStats) {
	p, spe, topo := cfg.Workers, cfg.StepsPerEpoch, cfg.Schedule.Topology
	img, txt, _ := data.ForFamily(cfg.Family, cfg.Seed) // errors only on a family cluster.Train has already run
	reps, rngs, ws, gs, vel := make([]models.Model, p), make([]*tensor.RNG, p), make([][][]float32, p), make([][][]float32, p), make([][][]float32, p)
	for r := range reps {
		reps[r], _ = models.New(models.Config{Family: cfg.Family, Seed: cfg.Seed, Reduced: true})
		rngs[r] = tensor.NewRNG(cfg.Seed*1000 + uint64(r) + 1)
		for _, q := range reps[r].Params() {
			ws[r], gs[r], vel[r] = append(ws[r], q.W), append(gs[r], q.G), append(vel[r], make([]float32, len(q.W)))
		}
	}
	var eval, batch models.Batch
	if img != nil {
		eval = img.EvalSet(cfg.EvalBatch, cfg.Seed)
	} else {
		eval = txt.EvalSet(cfg.EvalBatch/4+1, cfg.SeqLen, cfg.Seed)
	}
	pieces := func(ts [][]float32, lo, hi int) (segs [][]float32) { // the part of ts, laid end to end, in [lo, hi)
		off := 0
		for _, x := range ts {
			if a, b := max(lo-off, 0), min(hi-off, len(x)); a < b {
				segs = append(segs, x[a:b])
			}
			off += len(x)
		}
		return segs
	}
	norm := func(v []float32) (s float64) {
		for _, x := range v {
			s += float64(x) * float64(x)
		}
		return math.Sqrt(s)
	}
	mom, scale := cfg.Momentum, 1.0
	if cfg.Family == "lstm" { // worker.go's calibration of the reduced LM
		mom, scale = 0, 0.25
	}
	hist, lr, loss := []cluster.EpochStats(nil), 0.0, 0.0
	for g := 0; g < cfg.Epochs*spe; g++ {
		if e := float64(g / spe); g%spe == 0 { // Table 1: LS(base·factor·P) + GW over 3 epochs + PD; lstm PD @ 22
			lr, loss = 22, 0
			if ls, ok := map[string][2]float64{"fnn3": {0.01, 1}, "vgg16": {0.1, 1.5}, "resnet20": {0.1, 1}}[cfg.Family]; ok {
				lr = ls[0] * ls[1] * float64(p)
				if e < 3 {
					lr = lr * (e + 1) / 3
				}
			}
			lr = lr * math.Pow(1-e/float64(cfg.Epochs), 2) * scale
		}
		for r, m := range reps { // line 2
			if img != nil {
				img.SampleInto(rngs[r], cfg.BatchPerWorker, &batch)
			} else {
				txt.SampleInto(rngs[r], cfg.BatchPerWorker, cfg.SeqLen, &batch)
			}
			m.ZeroGrads()
			if l := m.Step(batch); r == 0 {
				loss += l
			}
		}
		for b := 0; b+1 < len(bounds); b++ {
			segs, mus := make([][][]float32, p), make([][]float32, p)
			for r := range reps {
				segs[r] = pieces(gs[r], bounds[b], bounds[b+1])
				mus[r] = slices.Concat(segs[r]...)
				if spec == "a2sgd" { // line 3
					mp, mn := core.RefMeans(segs[r])
					mus[r] = []float32{mp, mn}
				}
			}
			bar := mean(mus, topo, spec == "dense") // line 5
			for r := range segs {
				off := 0
				for _, seg := range segs[r] {
					for i, x := range seg {
						switch { // lines 4 and 6: ε = g − enc(µ), then ε + enc(µ̄)
						case spec == "dense":
							seg[i] = bar[off+i]
						case x >= 0:
							seg[i] = float32(x-mus[r][0]) + bar[0]
						default:
							seg[i] = float32(x+mus[r][1]) - bar[1]
						}
					}
					off += len(seg)
				}
			}
		}
		for r := range reps { // line 7: SGD, momentum, weight decay, LARS for vgg16
			for k, w := range ws[r] {
				g, v, step := gs[r][k], vel[r][k], lr
				if wn := norm(w); cfg.Family == "vgg16" && wn > 0 {
					step = lr * min(0.001*wn/(norm(g)+float64(cfg.WeightDecay)*wn+1e-12), 10)
				}
				for i := range w {
					d := g[i] + cfg.WeightDecay*w[i]
					if mom > 0 {
						v[i] = mom*v[i] + d
						d = v[i]
					}
					w[i] = w[i] - float32(step)*d
				}
			}
		}
		if (g+1)%spe == 0 {
			el, metric := reps[0].Eval(eval)
			hist = append(hist, cluster.EpochStats{Epoch: g / spe, Loss: loss / float64(spe), EvalLoss: el, Metric: metric, LR: lr})
		}
	}
	final := make([][]float32, p) // lines 9–10
	for r := range reps {
		final[r] = slices.Concat(ws[r]...)
	}
	return mean(final, topo, true), hist
}

// mean is AllreduceMean in comm's written orders: with topo > 1, a binomial
// reduce into each node's leader first; the sum by the ring (auto, ≥ 4096
// elements) or recursive doubling; then one float32 scale by 1/P.
func mean(vs [][]float32, topo int, auto bool) []float32 {
	tree := func(vs [][]float32) []float32 { // v[r] = v[r] + v[r+m] for r a multiple of 2m, m = 1, 2, …
		vs = slices.Clone(vs)
		for m := 1; m < len(vs); m *= 2 {
			for r := 0; r+m < len(vs); r += 2 * m {
				sum := make([]float32, len(vs[r]))
				for i := range sum {
					sum[i] = vs[r][i] + vs[r+m][i]
				}
				vs[r] = sum
			}
		}
		return vs[0]
	}
	inv := 1 / float32(len(vs))
	if topo > 1 {
		var leaders [][]float32
		for lo := 0; lo < len(vs); lo += topo {
			leaders = append(leaders, tree(vs[lo:min(lo+topo, len(vs))]))
		}
		vs = leaders
	}
	p, n := len(vs), len(vs[0])
	sum := make([]float32, n)
	if auto && n >= 4096 { // segment j starts at rank j, acc = x + acc for ranks j+1, …
		for j := range p {
			for i := j * n / p; i < (j+1)*n/p; i++ {
				sum[i] = vs[j][i]
				for k := 1; k < p; k++ {
					sum[i] = vs[(j+k)%p][i] + sum[i]
				}
			}
		}
	} else {
		// Recursive doubling folds rank 2r+1 into 2r for r < P − pow2; its mask
		// rounds then leave every rank the tree's sum of the pow2 (+ commutes).
		pow2 := 1 << (bits.Len(uint(p)) - 1)
		act := slices.Clone(vs[p-pow2:])
		for r := range p - pow2 {
			act[r] = tree(vs[2*r : 2*r+2])
		}
		copy(sum, tree(act))
	}
	for i := range sum {
		sum[i] *= inv
	}
	return sum
}

// TestTrainMatchesAlgorithm1 holds cluster.Train's final weights and epochs to
// algorithm1 bit for bit, and its reported shape to the row, where every family,
// P, fabric, mode, bucket plan and topology appear for a2sgd and dense. A row is
// "family spec P fabric mode KiB topo"; mode is serial, overlap (exchanges on the
// progress worker), interleave (launched from the backward pass) or conc2 (that
// on two tag-space contexts). Bucketed a2sgd has per-bucket means, not the
// paper's: its serial row also checks that it differs from whole-model means.
func TestTrainMatchesAlgorithm1(t *testing.T) {
	for _, row := range []string{
		"fnn3 a2sgd 2 inproc serial 0 0", "fnn3 dense 2 tcp serial 0 0", "fnn3 a2sgd 2 inproc overlap 0 0", "fnn3 dense 2 inproc overlap 0 0",
		"fnn3 a2sgd 3 tcp serial 0 0", "fnn3 a2sgd 3 tcp conc2 8 0", "fnn3 a2sgd 4 inproc serial 8 0", "fnn3 dense 4 inproc serial 8 0",
		"fnn3 a2sgd 4 inproc overlap 8 0", "fnn3 dense 4 inproc overlap 8 0", "fnn3 a2sgd 4 inproc conc2 8 0", "fnn3 dense 4 inproc conc2 8 0",
		"fnn3 dense 4 tcp serial 0 2", "fnn3 a2sgd 4 inproc conc2 8 2", "fnn3 a2sgd 6 inproc overlap 4 3", "fnn3 dense 6 inproc overlap 4 2",
		"lstm a2sgd 3 inproc interleave 8 0", "lstm a2sgd 3 tcp interleave 8 0", "lstm a2sgd 3 inproc conc2 8 2", "lstm dense 2 tcp serial 0 0",
		"lstm dense 4 inproc conc2 8 0", "resnet20 a2sgd 2 tcp conc2 8 0", "resnet20 dense 3 inproc serial 0 0", "resnet20 a2sgd 4 inproc serial 0 2",
		"resnet20 dense 4 tcp conc2 8 2", "vgg16 a2sgd 3 tcp serial 0 0", "vgg16 dense 2 inproc conc2 8 0",
	} {
		t.Run(strings.ReplaceAll(row, " ", "-"), func(t *testing.T) {
			var fam, spec, fabric, mode string
			var p, kib, topo int
			if _, err := fmt.Sscan(row, &fam, &spec, &p, &fabric, &mode, &kib, &topo); err != nil {
				t.Fatal(err)
			}
			sched, err := cluster.Lower(fam, spec, kib<<10, topo, mode != "serial")
			if err != nil {
				t.Fatal(err)
			}
			cfg := cluster.Config{Workers: p, Family: fam, Schedule: sched, Interleave: mode == "interleave" || mode == "conc2",
				Epochs: 2, StepsPerEpoch: 3, BatchPerWorker: 4, SeqLen: 6, Seed: 3, Momentum: 0.9, WeightDecay: 5e-4, EvalBatch: 16}
			if mode == "conc2" {
				cfg.Concurrency = 2
			}
			if fabric == "tcp" {
				cfg.GroupRunner = tcpnet.RunGroup
			}
			res, err := cluster.Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, hist := algorithm1(cfg, spec, sched.Bounds)
			if !slices.EqualFunc(res.FinalParams, want, same) {
				t.Error("FinalParams differ from Algorithm 1's")
			}
			if !slices.Equal(res.Epochs, hist) {
				t.Errorf("epochs %+v, Algorithm 1 gives %+v", res.Epochs, hist)
			}
			got := fmt.Sprint(res.Workers, res.Buckets, res.BucketBounds, res.Overlap, res.Interleave, res.Concurrency, res.Topology)
			if asked := fmt.Sprint(p, len(sched.Bounds)-1, sched.Bounds, mode != "serial", cfg.Interleave, max(cfg.Concurrency, 1), topo); got != asked {
				t.Errorf("run reports %s, the row asks %s", got, asked)
			}
			if spec == "a2sgd" && kib > 0 && mode == "serial" {
				if whole, _ := algorithm1(cfg, spec, []int{0, len(want)}); slices.EqualFunc(res.FinalParams, whole, same) {
					t.Error("bucketed a2sgd equals whole-model Algorithm 1")
				}
			}
		})
	}
}

func same(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
