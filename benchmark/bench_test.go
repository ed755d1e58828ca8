package main

import (
	"bytes"
	"regexp"
	"testing"
	"time"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/elastic"
	"a2sgd/internal/models"
	"a2sgd/internal/plan"
)

// The smoke test runs every workload at a tiny scale: it pins the contract
// between the harness and BENCHMARK.json, the probe's promises (buffered
// pass-through, one tick per step per rank), the decorator's transparency,
// and the shape of the trace.

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bf.Workloads) != len(workloads) || len(workloads) != 4 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d, want 4", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness (at most 16)", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !name.MatchString(m.Name) {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(bf.PerLayer) != len(perLayer) || len(bf.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness (at most 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !name.MatchString(m.Name) {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestEveryWorkloadSmallScale(t *testing.T) {
	for _, full := range workloads {
		w := full.small()
		t.Run(w.name, func(t *testing.T) {
			base, err := untraced(w, 1, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			e2e := endToEndOf(base)
			layers, err := runPerLayer(w, 1, base, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{e2e, layers} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, r.problems)
				}
			}
			for _, d := range endToEnd {
				if m, ok := e2e.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
			for _, d := range perLayer {
				if m, ok := layers.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer %s = %+v, want unit %s", d.name, m, d.unit)
				}
			}
			if got := e2e.Metrics["wire_bytes_per_worker_step"].Value; got != w.wireBytes {
				t.Errorf("wire bytes per worker-step %g, pinned %g", got, w.wireBytes)
			}
		})
	}
}

func TestProbeTicksAndBufferedPassThrough(t *testing.T) {
	f := comm.NewInprocFabric(2)
	defer f.Shutdown()
	p := newProbe(time.Now(), 0, nil, 0)
	if bt, ok := p.bind(f.Transport(0)).(comm.BufferedTransport); !ok || !bt.SendIsBuffered() {
		t.Error("the probe hides the inproc fabric's buffered send")
	}
	w := findWorkload("train-vgg16").small()
	run, err := w.trainOnce(1, trainOpts{epochs: w.epochs, steps: w.stepsPerEpoch})
	if err != nil {
		t.Fatal(err)
	}
	for r, pr := range run.probes {
		if !pr.buffered {
			t.Errorf("rank %d: inproc probe is not buffered", r)
		}
		if got, want := len(pr.ticks), w.epochs*w.stepsPerEpoch; got != want {
			t.Errorf("rank %d: %d ticks for %d steps", r, got, want)
		}
	}
}

// trainedWith runs the lstm pipeline (overlap, interleave, two contexts, TCP,
// checkpoints) with every bucket on spec, bare or through traced(...), and
// returns the result with every snapshot serialized.
func trainedWith(t *testing.T, spec string, traced bool, resume *cluster.RunState) (*cluster.Result, map[int][]byte, map[int]*cluster.RunState) {
	t.Helper()
	w := findWorkload("train-lstm-pipeline").small()
	m, err := models.New(models.Config{Family: w.family, Seed: 1, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := compress.ParsePolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	sched := plan.Lower(m.ParamSegments(), pol, w.bucketBytes, 0, w.overlap, workers)
	var tr *tracing
	if traced {
		tr = &tracing{rec: newRecorder(workers, 1<<14)}
		if err := traceSchedule(sched); err != nil {
			t.Fatal(err)
		}
		tracer = tr.rec
		defer func() { tracer = nil }()
	}
	probes := []*probe{newProbe(time.Now(), 64, tr, 0), newProbe(time.Now(), 64, tr, 1)}
	snaps, states := map[int][]byte{}, map[int]*cluster.RunState{}
	res, err := cluster.Train(cluster.Config{
		Workers: workers, Family: w.family, Seed: 1, Schedule: sched,
		Epochs: w.epochs, StepsPerEpoch: w.stepsPerEpoch, BatchPerWorker: batchSize,
		Concurrency: w.concurrency, Interleave: w.interleave,
		GroupRunner:     probedRunner(true, probes),
		CheckpointEvery: w.checkpointEvery, Resume: resume,
		SnapshotSink: func(rs *cluster.RunState) error {
			var buf bytes.Buffer
			if err := elastic.WriteSnapshot(&buf, rs); err != nil {
				return err
			}
			snaps[rs.Step], states[rs.Step] = buf.Bytes(), rs
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		tr.rec.link()
		if err := tr.rec.wellFormed(); err != nil {
			t.Error(err)
		}
	}
	return res, snaps, states
}

func TestTracedDecoratorIsTransparent(t *testing.T) {
	for _, spec := range []string{"a2sgd", "dense", "topk(density=0.05)"} {
		t.Run(spec, func(t *testing.T) {
			bare, bareSnaps, _ := trainedWith(t, spec, false, nil)
			traced, tracedSnaps, states := trainedWith(t, spec, true, nil)
			if !sameLosses(bare.Epochs, traced.Epochs) {
				t.Errorf("traced(%s) losses differ from the bare run", spec)
			}
			if bare.Algorithm != traced.Algorithm {
				t.Errorf("traced run reports algorithm %q, bare %q", traced.Algorithm, bare.Algorithm)
			}
			if len(bareSnaps) < 3 {
				t.Fatalf("only %d snapshots taken", len(bareSnaps))
			}
			for step, b := range bareSnaps {
				if !bytes.Equal(b, tracedSnaps[step]) {
					t.Errorf("snapshot at step %d differs between the traced and the bare run", step)
				}
			}
			// SaveStates/LoadStates through the decorator: resuming the
			// traced run from its mid-run snapshot ends where the
			// uninterrupted run ends.
			mid := states[8]
			if mid == nil {
				t.Fatal("no snapshot at step 8")
			}
			resumed, resumedSnaps, _ := trainedWith(t, spec, true, mid)
			if !sameLosses(bare.Epochs, resumed.Epochs) {
				t.Errorf("traced(%s) resumed from step 8 ends on different losses", spec)
			}
			if !bytes.Equal(resumedSnaps[12], bareSnaps[12]) {
				t.Errorf("traced(%s) resumed from step 8 differs at the step-12 snapshot", spec)
			}
		})
	}
}

func TestParseCPULine(t *testing.T) {
	steal, total := parseCPULine([]byte("cpu  402523 0 53142 560578 4010 0 12881 73143 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	if steal != 73143 || total != 402523+53142+560578+4010+12881+73143 {
		t.Errorf("steal %d total %d", steal, total)
	}
}
