// Command benchmark is the repository's benchmark: four workloads, five
// end-to-end metrics and a per-layer trace, all measured from outside the
// program under test. See README.md in this directory.
//
//	bash benchmark/run.sh --workload sync-a2sgd --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh                 # every workload, both passes
//	bash benchmark/run.sh -selfcheck      # run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/health"
	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

// pass is what one measured pass over a workload yields.
type pass struct {
	w             *workload
	setups        []float64 // seconds, one per set-up made
	stepMs        []float64 // rank 0's timed steps, in time order
	rates         []float64 // steps per second of each cycle (train-*) or chunk (sync-*)
	stolen        stolen    // the CPU clock over the pass
	wire, msgs    float64   // per worker-step
	payloadBytes  float64
	stepsToTarget int
	attempted     int
	failed        int
	problems      []string
	rounds        []*trainRun
	allocsPerStep float64
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

func (p *pass) absorb(q *pass) {
	p.setups = append(p.setups, q.setups...)
	p.stolen.merge(q.stolen)
	p.attempted += q.attempted
	p.failed += q.failed
	p.problems = append(p.problems, q.problems...)
}

// tracing is what a traced pass adds to a run.
type tracing struct {
	rec     *recorder
	sendObs func(rank, to, nBytes int, sec float64)
}

func (t *tracing) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
	samples  int     // timed steps behind step_ms
	steal    float64 // share of CPU time the hypervisor took during the pass
}

func newResult(defs []metricDef) *result {
	r := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) { // a ratio whose base was not measured
		v = 0
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *result) close(p *pass) {
	r.Attempted, r.Failed = p.attempted, p.failed
	r.problems = p.problems
	r.Correct = p.failed == 0
	r.samples, r.steal = len(p.stepMs), p.stolen.share()
}

// A run sets the workload up several times before the measured pass, so
// setup_s is taken over several: at least minSetups times, and — where a
// set-up takes tens of milliseconds and so jitters most — on for a tenth of
// the run's budget, up to maxSetups.
const (
	minSetups = 4
	maxSetups = 16
)

// measure makes one untraced pass; a zero budget makes it a set-up only.
func measure(w *workload, seed uint64, budget time.Duration) (*pass, error) {
	if w.train {
		return runTrain(w, seed, budget)
	}
	return runSync(w, seed, budget, 1<<20, nil)
}

// untraced is the end-to-end measurement: extra set-ups, then timed work for
// budget with only the per-step tick on.
func untraced(w *workload, seed uint64, budget time.Duration) (*pass, error) {
	all := &pass{w: w}
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < budget/10); i++ {
		s, err := measure(w, seed, 0)
		if err != nil {
			return nil, err
		}
		all.absorb(s)
	}
	p, err := measure(w, seed, budget)
	if err != nil {
		return nil, err
	}
	p.absorb(all)
	return p, nil
}

// endToEndOf reports an untraced pass as the end-to-end metrics: medians, or
// on the arithmetic-bound workloads the undisturbed end (quiet.go).
func endToEndOf(p *pass) *result {
	r := newResult(endToEnd)
	stepMs := p.w.timing(p.stepMs)
	r.set("setup_s", p.w.timing(p.setups))
	r.set("step_ms", stepMs)
	r.set("wire_bytes_per_worker_step", p.wire)
	r.set("time_to_target_s", float64(p.stepsToTarget)*stepMs/1000)
	r.close(p)
	return r
}

// tracedSteps is about how many steps the traced pass of a train workload
// takes.
const tracedSteps = 256

// runPerLayer makes the traced pass and the direct calls and reports the
// per-layer metrics; base is the untraced pass of the same run, the
// reference the traced one is held against. It adds its own steps and check
// failures to base.
func runPerLayer(w *workload, seed uint64, base *pass, traceOut string) (*result, error) {
	r := newResult(perLayer)

	mon := health.NewMonitor(workers, health.Options{LinkWindow: 512})
	tr := &tracing{sendObs: func(rank, to, nBytes int, sec float64) {
		mon.Recorder(rank).ObserveSend(to, nBytes, sec)
	}}
	// tracedMs are the traced pass's step times; afterMs those of an untraced
	// pass of the same length made right after it. With the tail of base
	// before it, the traced pass is held against untraced steps on both sides
	// in time: the box's speed drifts within seconds.
	var tracedMs, afterMs []float64
	var tracedRes *cluster.Result
	var kinds []netsim.ExchangeKind
	var bucketBytes []int64
	if w.train {
		epochs := min(w.epochs, max(2, tracedSteps/w.stepsPerEpoch))
		tr.rec = newRecorder(workers, 64*epochs*w.stepsPerEpoch+1024)
		run, err := w.trainOnce(seed, trainOpts{epochs: epochs, steps: w.stepsPerEpoch, tr: tr})
		if err != nil {
			return nil, err
		}
		tracedMs, _ = run.stepMs(w.stepsPerEpoch)
		tracedRes = run.res
		kinds, bucketBytes = run.res.BucketExchangeKinds, run.res.BucketPayloadBytes
		after, err := w.trainOnce(seed, trainOpts{epochs: epochs, steps: w.stepsPerEpoch})
		if err != nil {
			return nil, err
		}
		afterMs, _ = after.stepMs(w.stepsPerEpoch)
		base.attempted += 2 * epochs * w.stepsPerEpoch
	} else {
		steps := 2 * w.chunk
		tr.rec = newRecorder(workers, 64*(steps+warmup)+1024)
		tp, err := runSync(w, seed, time.Hour, steps, tr)
		if err != nil {
			return nil, err
		}
		after, err := runSync(w, seed, time.Hour, steps, nil)
		if err != nil {
			return nil, err
		}
		tracedMs, afterMs = tp.stepMs, after.stepMs
		base.absorb(tp)
		base.absorb(after)
		for b := 0; b < w.buckets; b++ {
			kinds = append(kinds, netsim.ExchangeAllreduce)
			bucketBytes = append(bucketBytes, int64(base.payloadBytes)/int64(w.buckets))
		}
	}
	rec := tr.rec
	rec.link()
	if err := rec.wellFormed(); err != nil {
		base.fail("trace: %v", err)
	}
	if traceOut != "" {
		if err := rec.writeChrome(traceOut); err != nil {
			return nil, err
		}
	}
	bd := rec.reduce(0, warmup)
	stepMs := w.timing(base.stepMs)
	ref := median(append(afterMs, base.stepMs[max(0, len(base.stepMs)-len(tracedMs)):]...))
	exchangeMs := median(bd.exchange)
	r.set("compress.encode_ms", median(bd.encode))
	r.set("compress.exchange_ms", exchangeMs)
	r.set("compress.exchange_self_ms", median(bd.exchangeSelf))
	r.set("compress.payload_bytes_per_step", base.payloadBytes)
	r.set("comm.msgs_per_step", base.msgs)
	r.set("comm.bytes_per_step", base.wire)
	r.set("tcpnet.send_ms", median(bd.send))
	r.set("tcpnet.recv_wait_ms", median(bd.recv))
	r.set("cluster.step_ms_p50", median(base.stepMs))
	r.set("cluster.step_ms_p95", quantile(base.stepMs, 0.95))
	r.set("cluster.steps_per_s", w.rate(base.rates))
	r.set("bench.steal_share", base.stolen.share())
	r.set("cluster.steps_to_target", float64(base.stepsToTarget))
	r.set("trace.overhead_pct", 100*(median(tracedMs)-ref)/ref)

	waitMs := median(bd.wait)
	hidden := 1 - waitMs/exchangeMs
	if w.train {
		var compute, encode, sync, other, eval, snap []float64
		var snapTotal, wall float64
		for _, run := range base.rounds {
			compute = append(compute, run.res.AvgComputeSec*1e3)
			encode = append(encode, run.res.AvgEncodeSec*1e3)
			sync = append(sync, run.res.AvgSyncSec*1e3)
			other = append(other, (run.res.AvgStepSec-run.res.AvgComputeSec-run.res.AvgEncodeSec-run.res.AvgSyncSec)*1e3)
			_, boundaries := run.stepMs(w.stepsPerEpoch)
			eval = append(eval, boundaries...)
			snap = append(snap, run.snapMs...)
			for _, ms := range run.snapMs {
				snapTotal += ms
			}
			wall += run.wallS
		}
		// The runtime's own per-step means: the wait is inside cluster, where
		// the harness has no boundary. Overlap efficiency takes both sides
		// from the traced run, as means.
		waitMs = median(sync)
		hidden = 1 - tracedRes.AvgSyncSec*1e3/mean(bd.exchange)
		first := base.rounds[0]
		r.set("cluster.compute_ms", median(compute))
		r.set("cluster.encode_ms", median(encode))
		r.set("cluster.sync_exposed_ms", waitMs)
		r.set("cluster.other_ms", median(other))
		r.set("cluster.eval_ms", w.timing(eval)-stepMs)
		r.set("cluster.final_eval_loss", first.res.Epochs[len(first.res.Epochs)-1].EvalLoss)
		r.set("elastic.snapshot_ms", median(snap))
		r.set("elastic.snapshot_bytes", first.snapBytes)
		r.set("elastic.stall_share", snapTotal/(wall*1e3))
		if err := trainExtras(w, seed, stepMs, r, base); err != nil {
			return nil, err
		}
	} else {
		r.set("comm.post_us", median(bd.postUs))
		r.set("cluster.allocs_per_step", base.allocsPerStep)
	}
	r.set("comm.wait_ms", waitMs)
	r.set("comm.hidden_share", hidden)
	if w.priceModel {
		// The model-error number: price this run's own payloads on the α–β
		// fabric fitted to this run's own send timings.
		if fab, ok := mon.MeasuredFabric("measured"); ok {
			var pred float64
			for b := range bucketBytes {
				pred += fab.SyncTime(kinds[b], bucketBytes[b], workers)
			}
			r.set("netsim.pred_ratio", pred*1e3/exchangeMs)
		}
	}
	if !w.scaled {
		if err := directCalls(w, seed, r); err != nil {
			return nil, err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("cluster.heap_peak_mb", float64(ms.HeapSys)/1e6)
	r.close(base)
	return r, nil
}

// trainExtras adds the per-layer numbers that need runs of their own: the
// plain single-worker baseline, and allocations per step with and without
// the probe (two run lengths differenced, so set-up allocations cancel).
func trainExtras(w *workload, seed uint64, stepMs float64, r *result, base *pass) error {
	n := w.stepsPerEpoch
	single, err := w.trainOnce(seed, trainOpts{epochs: 1, steps: n, single: true})
	if err != nil {
		return err
	}
	steps, _ := single.stepMs(n)
	singleMs := w.timing(steps)
	r.set("cluster.single_worker_step_ms", singleMs)
	r.set("cluster.vs_single_worker", stepMs/singleMs)
	base.attempted += n
	short := max(2, n/4)
	for _, noProbe := range []bool{false, true} {
		a, err := w.trainOnce(seed, trainOpts{epochs: 1, steps: short, noProbe: noProbe})
		if err != nil {
			return err
		}
		b, err := w.trainOnce(seed, trainOpts{epochs: 1, steps: 2 * short, noProbe: noProbe})
		if err != nil {
			return err
		}
		name := "cluster.allocs_per_step"
		if noProbe {
			name = "cluster.allocs_per_step_noprobe"
		}
		r.set(name, (float64(b.mallocs)-float64(a.mallocs))/float64(short))
		base.attempted += 3 * short
	}
	return nil
}

// directCalls makes the timed calls into single layers that are attached to
// this workload; on the other workloads those metrics read 0.
func directCalls(w *workload, seed uint64, r *result) error {
	switch w.name {
	case "sync-a2sgd":
		r.set("tensor.signed_means_ns_per_elem", signedMeansNsPerElem(seed))
		for _, spec := range []string{"a2sgd", "topk", "gaussiank", "qsgd", "qsgd-elias"} {
			v, err := encodeNsPerElem(spec, seed)
			if err != nil {
				return err
			}
			r.set("compress.encode_ns_per_elem."+spec, v)
		}
		o := compress.DefaultOptions(microElems)
		o.Seed = seed
		r.set("compress.decode_ns_per_elem.qsgd", decodeNsPerElem(compress.NewQSGD(o), seed))
		r.set("compress.decode_ns_per_elem.qsgd-elias", decodeNsPerElem(compress.NewQSGDElias(o), seed))
	case "sync-dense":
		for _, tcp := range []bool{false, true} {
			fabric := map[bool]string{false: "inproc", true: "tcp"}[tcp]
			big, err := allreduceSec(tcp, microElems, 15, comm.AlgoRing)
			if err != nil {
				return err
			}
			small, err := allreduceSec(tcp, 2, 2000, comm.AlgoAuto)
			if err != nil {
				return err
			}
			r.set("comm.allreduce_ms."+fabric+".4MiB", big*1e3)
			r.set("comm.allreduce_us."+fabric+".8B", small*1e6)
		}
		big, err := pingPongSec(microElems, 25)
		if err != nil {
			return err
		}
		small, err := pingPongSec(2, 2000)
		if err != nil {
			return err
		}
		r.set("tcpnet.sendrecv_MBps.4MiB", 4*microElems/big/1e6)
		r.set("tcpnet.rtt_us.8B", small*1e6)
	case "train-vgg16":
		r.set("tensor.matmul_gflops", matmulGflops(seed))
		v, err := modelStepMs("vgg16", seed)
		if err != nil {
			return err
		}
		r.set("nn.step_ms.vgg16", v)
		if v, err = optimUpdateNsPerParam(seed); err != nil {
			return err
		}
		r.set("optim.update_ns_per_param", v)
		if v, err = planBuildMs(seed); err != nil {
			return err
		}
		r.set("plan.build_ms", v)
	case "train-lstm-pipeline":
		v, err := modelStepMs("lstm", seed)
		if err != nil {
			return err
		}
		r.set("nn.step_ms.lstm", v)
		if v, err = postUs(); err != nil {
			return err
		}
		r.set("comm.post_us", v)
	}
	return nil
}

func (r *result) print(w *workload, defs []metricDef) {
	fmt.Printf("%s: %d steps attempted, %d failed, step_ms over %d samples, %.1f%% of CPU time stolen\n",
		w.name, r.Attempted, r.Failed, r.samples, 100*r.steal)
	for _, d := range defs {
		fmt.Printf("  %-42s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: CHECK FAILED: %s\n", w.name, p)
	}
}

func environment() map[string]any {
	env := map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"goarch":         runtime.GOARCH,
		"bits_zero_copy": tensor.BitsZeroCopy(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// runAll is the one command: every workload, both passes, every metric by
// name with its unit, and optionally the whole result as one JSON file.
func runAll(names []string, seed uint64, budget time.Duration, out string) error {
	report := map[string]any{"environment": environment(), "seed": seed, "seconds": budget.Seconds()}
	byWorkload := map[string]any{}
	ok := true
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		base, err := untraced(w, seed, budget)
		if err != nil {
			return err
		}
		e2e := endToEndOf(base)
		e2e.print(w, endToEnd)
		layers, err := runPerLayer(w, seed, base, "")
		if err != nil {
			return err
		}
		layers.print(w, perLayer)
		ok = ok && e2e.Correct && layers.Correct
		byWorkload[name] = map[string]any{
			"end_to_end": e2e, "per_layer": layers, "step_samples": e2e.samples,
		}
	}
	report["workloads"] = byWorkload
	if out != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return errors.New("an output check failed")
	}
	return nil
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (comma-separated in the all-workloads mode; empty runs all four, both passes)")
		seed      = flag.Uint64("seed", 1, "seed of every generated input: model init, data, synthetic gradients")
		seconds   = flag.Float64("seconds", 20, "how long the timed part of a run measures")
		trace     = flag.Int("trace", -1, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		traceOut  = flag.String("trace-out", "", "with -trace 1: write the spans as Chrome/Perfetto trace-event JSON")
		out       = flag.String("out", "", "all-workloads mode: also write every result to this JSON file")
		selfcheck = flag.Bool("selfcheck", false, "run every workload at ten seeds for BENCHMARK.json's run_seconds, twice, and hold the spread and the medians against its bounds")
	)
	flag.Parse()
	if runtime.NumCPU() < workers {
		fatal(fmt.Errorf("needs %d CPUs for %d lock-step workers, have %d", workers, workers, runtime.NumCPU()))
	}
	// One P per worker: the load shape is two ranks in lock step.
	runtime.GOMAXPROCS(workers)
	budget := time.Duration(*seconds * float64(time.Second))

	switch {
	case *selfcheck:
		if err := selfCheck(); err != nil {
			fatal(err)
		}
	case *trace < 0:
		names := strings.Split(*name, ",")
		if *name == "" {
			names = nil
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		if err := runAll(names, *seed, budget, *out); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		base, err := untraced(w, *seed, budget)
		if err != nil {
			fatal(err)
		}
		r, defs := endToEndOf(base), endToEnd
		if *trace != 0 {
			defs = perLayer
			if r, err = runPerLayer(w, *seed, base, *traceOut); err != nil {
				fatal(err)
			}
		}
		r.print(w, defs)
		line, err := json.Marshal(r)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
