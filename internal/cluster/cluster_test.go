package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"a2sgd/internal/comm/tcpnet"
	_ "a2sgd/internal/core" // registers a2sgd and its ablation variants
	"a2sgd/internal/data"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
	"a2sgd/internal/tensor"
)

// lowered returns cfg running algo (any spec or policy string) on the
// schedule Lower writes down for the given knobs.
func lowered(cfg Config, algo string, bucketBytes, topology int, overlap bool) Config {
	sched, err := Lower(cfg.Family, algo, bucketBytes, topology, overlap)
	if err != nil {
		panic(err)
	}
	cfg.Schedule = sched
	return cfg
}

func quickCfg(family, algo string, workers int) Config {
	return lowered(Config{
		Workers: workers, Family: family,
		Epochs:         3,
		StepsPerEpoch:  8,
		BatchPerWorker: 8,
		Seed:           7,
		Momentum:       0.9,
		EvalBatch:      64,
	}, algo, 0, 0, false)
}

func TestTrainRequiresAlgorithm(t *testing.T) {
	_, err := Train(Config{Workers: 1, Family: "fnn3"})
	if err == nil {
		t.Fatal("expected error without a Schedule")
	}
	if !strings.Contains(err.Error(), "cluster.Lower") {
		t.Errorf("nil-Schedule error does not name the lowering helper: %v", err)
	}
}

// TestResumeAtFinalBoundaryReportsZeroAverages: a snapshot taken at the last
// step boundary of a shorter run resumes into a run with no step left — the
// loop runs zero steps and the per-step averages must be 0, not 0/0.
func TestResumeAtFinalBoundaryReportsZeroAverages(t *testing.T) {
	var last *RunState
	cfg := quickCfg("fnn3", "a2sgd", 2)
	cfg.Epochs, cfg.StepsPerEpoch = 2, 4
	cfg.CheckpointEvery = 4
	cfg.SnapshotSink = func(rs *RunState) error { last = rs; return nil }
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Step != 4 {
		t.Fatalf("no snapshot at step 4: %+v", last)
	}
	cfg.Epochs, cfg.SnapshotSink, cfg.Resume = 1, nil, last
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"AvgComputeSec": res.AvgComputeSec, "AvgEncodeSec": res.AvgEncodeSec,
		"AvgSyncSec": res.AvgSyncSec, "AvgStepSec": res.AvgStepSec,
	} {
		if v != 0 {
			t.Errorf("%s = %v after a zero-step resume, want 0", name, v)
		}
	}
	if len(res.Epochs) != 1 {
		t.Errorf("resumed run reports %d epochs, want the snapshot's 1", len(res.Epochs))
	}
}

// TestResumeRefusesStateItCannotPlace: batch-norm statistics or momentum that
// are present in a snapshot but of the wrong length mean a truncated or
// foreign snapshot; the resume fails naming the rank, the field and both
// lengths instead of training on with fresh statistics and other results.
// An absent field keeps its meaning: none was captured.
func TestResumeRefusesStateItCannotPlace(t *testing.T) {
	var snap *RunState
	cfg := quickCfg("vgg16", "a2sgd", 2)
	cfg.Epochs, cfg.StepsPerEpoch, cfg.BatchPerWorker = 1, 4, 2
	cfg.CheckpointEvery = 2
	cfg.SnapshotSink = func(rs *RunState) error {
		if rs.Step == 2 {
			snap = rs
		}
		return nil
	}
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot at step 2")
	}
	stateLen, n := len(snap.Workers[1].ModelState), snap.NumParams
	cfg.CheckpointEvery, cfg.SnapshotSink = 0, nil
	for _, tc := range []struct {
		name   string
		tamper func(ws *WorkerState)
		want   []string // fragments of the error; none = the resume succeeds
	}{
		{"short ModelState", func(ws *WorkerState) { ws.ModelState = ws.ModelState[:stateLen-1] },
			[]string{"worker 1", "ModelState", fmt.Sprint(stateLen - 1), fmt.Sprint(stateLen)}},
		{"long Velocity", func(ws *WorkerState) { ws.Velocity = append(ws.Velocity, 0) },
			[]string{"worker 1", "Velocity", fmt.Sprint(n + 1), fmt.Sprint(n)}},
		{"absent", func(ws *WorkerState) { ws.ModelState, ws.Velocity = nil, nil }, nil},
	} {
		rs := *snap
		rs.Workers = append([]*WorkerState(nil), snap.Workers...)
		ws := *snap.Workers[1]
		tc.tamper(&ws)
		rs.Workers[1] = &ws
		cfg.Resume = &rs
		_, err := Train(cfg)
		if len(tc.want) == 0 {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: the resume went ahead", tc.name)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, frag)
			}
		}
	}
}

func TestTrainUnknownFamily(t *testing.T) {
	if _, err := Lower("nope", "dense", 0, 0, false); err == nil {
		t.Error("Lower: expected error for unknown family")
	}
	cfg := quickCfg("fnn3", "dense", 1)
	cfg.Family = "nope"
	if _, err := Train(cfg); err == nil {
		t.Fatal("expected error for unknown family")
	}
}

func TestDenseTrainingLearnsFNN(t *testing.T) {
	cfg := quickCfg("fnn3", "dense", 2)
	cfg.Epochs = 5
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("epochs %d", len(res.Epochs))
	}
	first, last := res.Epochs[0], res.Epochs[len(res.Epochs)-1]
	if !(last.Loss < first.Loss) {
		t.Errorf("loss did not fall: %v -> %v", first.Loss, last.Loss)
	}
	if last.Metric < 0.5 {
		t.Errorf("final accuracy %v too low", last.Metric)
	}
	if res.Metric != models.MetricAccuracy {
		t.Error("metric kind")
	}
	if res.NumParams <= 0 || res.Algorithm != "dense" {
		t.Errorf("metadata: %+v", res)
	}
}

func TestA2SGDMatchesDenseConvergenceShape(t *testing.T) {
	// The paper's headline convergence claim: A2SGD reaches accuracy close
	// to dense SGD on the same budget.
	accs := map[string]float64{}
	for _, algo := range []string{"dense", "a2sgd"} {
		cfg := quickCfg("fnn3", algo, 4)
		cfg.Epochs = 6
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs[algo] = res.FinalMetric()
	}
	if accs["a2sgd"] < accs["dense"]-0.12 {
		t.Errorf("a2sgd %.3f much worse than dense %.3f", accs["a2sgd"], accs["dense"])
	}
}

func TestAllAlgorithmsTrainAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, fam := range models.Families() {
		for _, algo := range []string{
			"dense", "topk", "gaussiank", "qsgd", "a2sgd",
			"a2sgd-allgather", "periodic(a2sgd, interval=4)", "qsgd-elias",
		} {
			cfg := quickCfg(fam, algo, 2)
			cfg.Epochs = 2
			cfg.StepsPerEpoch = 4
			cfg.BatchPerWorker = 4
			cfg.EvalBatch = 32
			res, err := Train(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, algo, err)
			}
			if len(res.Epochs) != 2 {
				t.Fatalf("%s/%s: epochs %d", fam, algo, len(res.Epochs))
			}
			if math.IsNaN(res.Epochs[1].Loss) {
				t.Fatalf("%s/%s: NaN loss", fam, algo)
			}
		}
	}
}

func TestTrafficAccountingPerAlgorithm(t *testing.T) {
	// A2SGD must move ~8 bytes/step ×log2 rounds; dense must move ~4·n.
	cfgA := quickCfg("fnn3", "a2sgd", 4)
	resA, err := Train(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgD := quickCfg("fnn3", "dense", 4)
	resD, err := Train(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	if resA.PayloadBytes != 8 {
		t.Errorf("a2sgd payload %d, want 8", resA.PayloadBytes)
	}
	if resD.PayloadBytes != int64(4*resD.NumParams) {
		t.Errorf("dense payload %d, want %d", resD.PayloadBytes, 4*resD.NumParams)
	}
	// Measured per-step traffic: A2SGD orders of magnitude below dense.
	if resA.BytesPerWorkerPerStep*100 > resD.BytesPerWorkerPerStep {
		t.Errorf("a2sgd measured %.0f B/step vs dense %.0f B/step — expected >>100x gap",
			resA.BytesPerWorkerPerStep, resD.BytesPerWorkerPerStep)
	}
}

func TestModeledIterationTimeOrdering(t *testing.T) {
	// On the modelled 100 Gbps fabric with a large model, A2SGD's sync time
	// must be negligible versus dense.
	res := &Result{
		Workers: 8, AvgComputeSec: 0.01, AvgEncodeSec: 0.001,
		PayloadBytes: 8, ExchangeKind: netsim.ExchangeAllreduce,
	}
	dense := &Result{
		Workers: 8, AvgComputeSec: 0.01, AvgEncodeSec: 0,
		PayloadBytes: 66_034_000 * 4, ExchangeKind: netsim.ExchangeAllreduce,
	}
	f := netsim.IB100()
	if res.ModeledIterSec(f) >= dense.ModeledIterSec(f) {
		t.Error("A2SGD modelled iteration must beat dense for the LSTM-sized model")
	}
}

func TestHistogramCapture(t *testing.T) {
	cfg := quickCfg("fnn3", "dense", 2)
	cfg.HistIters = []int{0, 10}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histograms) != 2 {
		t.Fatalf("captured %d histograms, want 2", len(res.Histograms))
	}
	for i, h := range res.Histograms {
		if h.Total() != int64(res.NumParams) {
			t.Errorf("hist %d covers %d values, want %d", i, h.Total(), res.NumParams)
		}
	}
}

// TestDeterministicReplay: the same seed gives bit-identical epochs and final
// weights (the dense path is deterministic).
func TestDeterministicReplay(t *testing.T) {
	trainPair(t, "dense replay", quickCfg("fnn3", "dense", 2), quickCfg("fnn3", "dense", 2))
}

// TestTrainingOverTCPDense: dense training over real loopback sockets matches
// the in-process fabric bit for bit.
func TestTrainingOverTCPDense(t *testing.T) {
	cfg := quickCfg("fnn3", "dense", 2)
	cfg.Epochs, cfg.StepsPerEpoch, cfg.BatchPerWorker = 2, 3, 4
	tcp := cfg
	tcp.GroupRunner = tcpnet.RunGroup
	ri, rt := trainPair(t, "dense tcp-vs-inproc", cfg, tcp)
	if len(ri.Epochs) != 2 || len(rt.Epochs) != 2 {
		t.Fatalf("epochs %d/%d, want 2", len(ri.Epochs), len(rt.Epochs))
	}
}

func TestFinalMetricEmpty(t *testing.T) {
	if (&Result{}).FinalMetric() != 0 {
		t.Error("empty result metric")
	}
}

func TestLSTMClusterRun(t *testing.T) {
	cfg := quickCfg("lstm", "a2sgd", 2)
	cfg.SeqLen = 8
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != models.MetricPerplexity {
		t.Error("metric kind")
	}
	if res.FinalMetric() <= 1 {
		t.Errorf("perplexity %v", res.FinalMetric())
	}
}

// assertDiverges runs cfg under an absurd learning-rate scale and requires
// the blow-up to surface as a *DivergenceError naming the lowest diverged
// rank and its step, first in the group error, not as silent Inf metrics.
func assertDiverges(t *testing.T, cfg Config, rank, step int) {
	t.Helper()
	cfg.LRScale = 1e12
	cfg.Epochs = 30
	_, err := Train(cfg)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("divergence surfaced as %v", err)
	}
	if de.Rank != rank || de.Step != step {
		t.Fatalf("divergence named rank %d at step %d, want rank %d at step %d: %v", de.Rank, de.Step, rank, step, err)
	}
	if want := fmt.Sprintf("rank %d: cluster: step %d: %v", rank, step, de); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("group error does not open with %q: %v", want, err)
	}
}

// TestDivergenceDetection: failure injection on the synchronous
// whole-model path. Both ranks diverge at step 1.
func TestDivergenceDetection(t *testing.T) {
	assertDiverges(t, quickCfg("fnn3", "dense", 2), 0, 1)
}

// TestOverlappedPipelineSurfacesNonFiniteGradient: the overlapped bucket
// pipeline encodes the next bucket while earlier exchanges run on the
// progress workers; a bucket that diverges mid-step must still fail cleanly
// (no hang, no panic) with those exchanges in flight. Both ranks diverge
// at step 1 here too.
func TestOverlappedPipelineSurfacesNonFiniteGradient(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(8) // let the posted exchanges run beside the encodes
	assertDiverges(t, bucketCfg("a2sgd", 2, fourBucketBytes, true), 0, 1)
}

// TestCheckpointWrittenAndRestorable: the run's final weights come back in
// Result.FinalParams, and restored into a fresh model they evaluate to the
// run's last held-out metric. Dense replicas never drift, so the final
// dense synchronization averages identical weights and changes no bit of
// the model rank 0 evaluated.
func TestCheckpointWrittenAndRestorable(t *testing.T) {
	cfg := quickCfg("fnn3", "dense", 2)
	cfg.Epochs = 2
	cfg.StepsPerEpoch = 3
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalParams) != res.NumParams {
		t.Fatalf("FinalParams holds %d values, model has %d", len(res.FinalParams), res.NumParams)
	}
	m, err := models.New(models.Config{Family: "fnn3", Seed: cfg.Seed, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	var weights tensor.VecView
	nn.WeightViewOf(m.Params(), &weights)
	weights.CopyFrom(res.FinalParams)
	img, _, err := data.ForFamily("fnn3", cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, metric := m.Eval(img.EvalSet(cfg.EvalBatch, cfg.Seed)); metric != res.FinalMetric() {
		t.Errorf("restored model scores %v, the run ended at %v", metric, res.FinalMetric())
	}
}
