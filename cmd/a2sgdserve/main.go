// Command a2sgdserve is the elastic training gateway: it supervises N
// concurrent training jobs over one shared worker-slot pool, snapshots full
// training state at checkpoint boundaries, recovers from rank crashes by
// resharding onto the survivors, re-admits preempted ranks at the next
// boundary, and drains to disk on SIGTERM so -resume can pick every job back
// up from its last snapshot.
//
// Usage:
//
//	a2sgdserve -family fnn3 -spec a2sgd -workers 4 -epochs 2 -dir /tmp/ckpt
//	a2sgdserve -jobs jobs.json -pool 8 -dir /tmp/ckpt
//	a2sgdserve -jobs jobs.json -dir /tmp/ckpt -resume     # after a SIGTERM
//	a2sgdserve -workers 4 -faults "preempt(rank=3, step=5)" -checkpoint-every 5
//	a2sgdserve -workers 4 -spec auto -drift-replan -backup-workers 1
//
// jobs.json is an array of job objects; an unknown key is an error (exit 2):
//
//	[{"name": "mlp", "family": "fnn3", "spec": "a2sgd", "workers": 4,
//	  "epochs": 2, "steps": 10, "checkpoint_every": 5},
//	 {"name": "cnn", "family": "vgg16", "spec": "auto(fabric=tcp10g)",
//	  "workers": 2, "drift_replan": true}]
//
// Every job lowers through the library façade (a2sgd.NewJob), so a job's
// "spec" is whatever a2sgd.TrainConfig.Spec accepts: an algorithm spec, a
// per-bucket policy such as "mixed(big=a2sgd, small=dense, threshold=8KiB)"
// (with "bucket_bytes"), or "auto(spec, ..., fabric=name)" for a job whose
// schedule the cost-model planner re-plans at every membership epoch's
// world size.
//
// Each job persists its newest snapshot to -dir/<name>.snap (atomic rewrite
// in the versioned A2SV format); -resume restores any job whose snapshot
// file exists and runs it to completion.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"a2sgd"
	"a2sgd/internal/elastic"
)

// jobSpec is one job of the gateway's run set (one JSON object in -jobs).
type jobSpec struct {
	Name            string  `json:"name"`
	Family          string  `json:"family"`
	Spec            string  `json:"spec"`
	Workers         int     `json:"workers"`
	Epochs          int     `json:"epochs"`
	Steps           int     `json:"steps"`
	Batch           int     `json:"batch"`
	Seed            uint64  `json:"seed"`
	Momentum        float64 `json:"momentum"`
	BucketBytes     int     `json:"bucket_bytes"`
	CheckpointEvery int     `json:"checkpoint_every"`
	Faults          string  `json:"faults"`
	// BackupWorkers is the spare-slot budget the escalation ladder can
	// promote a warm clone from when a rank's links degrade.
	BackupWorkers int `json:"backup_workers"`
	// DriftReplan re-plans on the measured fabric when the health monitor's
	// α–β estimates drift from the planning model. Requires an auto spec.
	DriftReplan bool `json:"drift_replan"`
}

func (js *jobSpec) defaults(i int) {
	if js.Name == "" {
		js.Name = fmt.Sprintf("job%d", i)
	}
	if js.Family == "" {
		js.Family = "fnn3"
	}
	if js.Spec == "" {
		js.Spec = "a2sgd"
	}
	if js.Workers <= 0 {
		js.Workers = 2
	}
	if js.Epochs <= 0 {
		js.Epochs = 1
	}
	if js.Steps <= 0 {
		js.Steps = 10
	}
	if js.Batch <= 0 {
		js.Batch = 8
	}
	if js.Seed == 0 {
		js.Seed = 1
	}
	if js.CheckpointEvery <= 0 {
		js.CheckpointEvery = 5
	}
}

// jobOutcome is one job's terminal state, for the summary table.
type jobOutcome struct {
	name   string
	result *elastic.RunResult
	err    error
}

// useTCP reads -transport: tcp runs the worker groups over loopback TCP,
// inproc over the in-process fabric, and anything else is a usage error
// rather than a silent in-process run.
func useTCP(transport string) (bool, error) {
	if transport != "inproc" && transport != "tcp" {
		return false, fmt.Errorf("bad -transport: unknown transport %q (have inproc, tcp)", transport)
	}
	return transport == "tcp", nil
}

// readJobs decodes a -jobs file. Unknown keys are an error: a typo such as
// "bucketbytes" would otherwise run a different job than the one written.
func readJobs(r io.Reader) ([]jobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var specs []jobSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty job list")
	}
	return specs, nil
}

// buildJob lowers one job spec through the façade (a2sgd.NewJob), resuming
// from snapPath when asked and the file exists, and adds the gateway's own
// fields: the shared pool, the drain signal and the escalation ladder.
func buildJob(js jobSpec, snapPath string, resume, tcp bool, pool *elastic.Pool, drain <-chan struct{}) (*a2sgd.Job, error) {
	tc := a2sgd.TrainConfig{
		Family: js.Family, Spec: js.Spec, Workers: js.Workers,
		Epochs: js.Epochs, StepsPerEpoch: js.Steps, BatchPerWorker: js.Batch,
		Seed: js.Seed, Momentum: float32(js.Momentum), BucketBytes: js.BucketBytes,
		CheckpointEvery: js.CheckpointEvery, Faults: js.Faults, TCP: tcp,
		SnapshotPath: snapPath,
	}
	if resume {
		if _, err := os.Stat(snapPath); err == nil {
			tc.ResumePath = snapPath
		}
	}
	job, err := a2sgd.NewJob(tc)
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", js.Name, err)
	}
	if js.DriftReplan && job.Replan == nil {
		return nil, fmt.Errorf("job %s: drift_replan requires an auto spec (the planner owns the schedule it re-prices)", js.Name)
	}
	if rs := job.Config.Resume; rs != nil {
		fmt.Printf("[%s] resuming from %s (step %d, world %d)\n", js.Name, snapPath, rs.Step, rs.World)
	}
	job.Pool, job.Drain = pool, drain
	job.BackupSlots, job.DriftReplan = js.BackupWorkers, js.DriftReplan
	return job, nil
}

func main() {
	jobsPath := flag.String("jobs", "", "JSON file with an array of job specs (overrides the single-job flags)")
	family := flag.String("family", "fnn3", "single job: model family")
	spec := flag.String("spec", "a2sgd", "single job: algorithm spec — registered: "+strings.Join(a2sgd.AlgorithmUsage(), ", ")+
		"; or a per-bucket policy — "+strings.Join(a2sgd.PolicyUsage(), ", ")+
		"; or auto(spec, ..., fabric=name) to re-plan the schedule at every membership epoch's world size")
	workers := flag.Int("workers", 4, "single job: data-parallel worker count")
	epochs := flag.Int("epochs", 1, "single job: epochs")
	steps := flag.Int("steps", 10, "single job: steps per epoch")
	batch := flag.Int("batch", 8, "single job: batch per worker")
	seed := flag.Uint64("seed", 1, "single job: experiment seed")
	momentum := flag.Float64("momentum", 0.9, "single job: SGD momentum")
	bucketBytes := flag.Int("bucket-bytes", 0, "single job: gradient bucket budget (0 = whole model)")
	checkpointEvery := flag.Int("checkpoint-every", 5, "single job: snapshot every k global steps")
	faults := flag.String("faults", "", "single job: fault scenario, e.g. 'deadline(2s) preempt(rank=3, step=5)'")
	backupWorkers := flag.Int("backup-workers", 0, "single job: spare-slot budget for backup-worker promotion of degraded ranks")
	driftReplan := flag.Bool("drift-replan", false, "single job: re-plan on the measured fabric when it drifts from the model (requires -spec auto)")
	poolN := flag.Int("pool", 8, "shared worker-slot pool across all jobs")
	dir := flag.String("dir", ".", "snapshot directory (-dir/<name>.snap per job)")
	resume := flag.Bool("resume", false, "resume every job whose snapshot file exists")
	transport := flag.String("transport", "inproc", "worker fabric: inproc|tcp")
	flag.Parse()
	tcp, err := useTCP(*transport)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var specs []jobSpec
	if *jobsPath != "" {
		f, err := os.Open(*jobsPath)
		if err == nil {
			specs, err = readJobs(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "jobs:", err)
			os.Exit(2)
		}
	} else {
		specs = []jobSpec{{
			Family: *family, Spec: *spec, Workers: *workers,
			Epochs: *epochs, Steps: *steps, Batch: *batch,
			Seed: *seed, Momentum: *momentum, BucketBytes: *bucketBytes,
			CheckpointEvery: *checkpointEvery, Faults: *faults,
			BackupWorkers: *backupWorkers, DriftReplan: *driftReplan,
		}}
	}
	names := map[string]bool{}
	for i := range specs {
		specs[i].defaults(i)
		if names[specs[i].Name] {
			fmt.Fprintf(os.Stderr, "jobs: duplicate job name %q\n", specs[i].Name)
			os.Exit(2)
		}
		names[specs[i].Name] = true
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dir:", err)
		os.Exit(2)
	}

	// SIGTERM/SIGINT drains: every job stops at its next checkpoint boundary
	// with a final on-disk snapshot, and a later -resume run picks it up.
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigs
		fmt.Printf("received %v: draining to checkpoint boundaries\n", s)
		close(drain)
	}()

	pool := elastic.NewPool(*poolN)
	outcomes := make([]jobOutcome, len(specs))
	var wg sync.WaitGroup
	for i, js := range specs {
		snapPath := filepath.Join(*dir, js.Name+".snap")
		job, err := buildJob(js, snapPath, *resume, tcp, pool, drain)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			rr, err := job.Run()
			outcomes[i] = jobOutcome{name: name, result: rr, err: err}
		}(i, js.Name)
	}
	wg.Wait()
	signal.Stop(sigs)

	failed := 0
	for _, oc := range outcomes {
		switch {
		case oc.err != nil:
			failed++
			fmt.Printf("[%s] FAILED: %v\n", oc.name, oc.err)
		case oc.result.Paused:
			fmt.Printf("[%s] paused at step %d (world %d), snapshot persisted — rerun with -resume\n",
				oc.name, oc.result.Snapshot.Step, oc.result.Snapshot.World)
		default:
			res := oc.result.Result
			last := res.Epochs[len(res.Epochs)-1]
			fmt.Printf("[%s] done: %d epochs, final loss %.4f, restarts %d\n",
				oc.name, len(res.Epochs), last.Loss, oc.result.Restarts)
		}
		for _, e := range oc.result.Events {
			fmt.Printf("[%s]   epoch %d @ step %d, world %d: %s\n", oc.name, e.Epoch, e.Step, e.World, e.Reason)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
