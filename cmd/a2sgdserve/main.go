// Command a2sgdserve is the elastic training gateway: it supervises N
// concurrent training jobs over one shared worker-slot pool, snapshots full
// training state at checkpoint boundaries, recovers from rank crashes by
// resharding onto the survivors, re-admits preempted ranks at the next
// boundary, and drains to disk on SIGTERM so -resume can pick every job back
// up from its last snapshot.
//
// Usage:
//
//	a2sgdserve -jobs jobs.json [-pool 8] [-dir .] [-resume] [-transport inproc|tcp]
//	a2sgdserve -jobs - -dir /tmp/ckpt <<'EOF'
//	[{"workers": 4, "faults": "deadline(5s) preempt(rank=3, step=3)"}]
//	EOF
//
// A jobs file is the only way to describe a job: -jobs names it, or - reads
// it from stdin, and a run without -jobs is a usage error (exit 2). It holds
// a JSON array of job objects. Each object is decoded on top of one default
// job, so a key it omits takes the default and a key it writes, 0 included,
// is what runs:
//
//	key               default   meaning
//	name              job<i>    snapshot file -dir/<name>.snap; i is the job's index
//	family            fnn3      model family
//	spec              a2sgd     what synchronizes the gradient (see below)
//	workers           2         data-parallel worker count
//	epochs            1         epochs
//	steps             10        steps per epoch
//	batch             8         batch per worker
//	seed              1         experiment seed
//	momentum          0.9       SGD momentum (lstm always trains without)
//	bucket_bytes      0         gradient bucket budget (0 = whole model)
//	checkpoint_every  5         snapshot every k global steps
//	faults            ""        fault scenario, e.g. "deadline(2s) preempt(rank=3, step=3)"
//	backup_workers    0         spare slots a degraded rank's warm clone is promoted from
//	drift_replan      false     re-plan on the measured fabric when it drifts from the model
//
// An unknown key, an empty or repeated name, or workers, epochs, steps, batch
// or checkpoint_every below 1 is an error naming the job (exit 2).
//
// Every job lowers through the library façade (a2sgd.NewJob), so a job's
// "spec" is whatever a2sgd.TrainConfig.Spec accepts: an algorithm spec, a
// per-bucket policy such as "mixed(big=a2sgd, small=dense, threshold=8KiB)"
// (with "bucket_bytes"), or "auto(spec, ..., fabric=name)" for a job whose
// schedule the cost-model planner re-plans at every membership epoch's
// world size ("drift_replan" requires it).
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
	BackupWorkers   int     `json:"backup_workers"`
	DriftReplan     bool    `json:"drift_replan"`
}

// defaultJob is the job each jobs-file object is decoded on top of (the
// defaults table in the package comment); readJobs names it job<i>.
var defaultJob = jobSpec{
	Family: "fnn3", Spec: "a2sgd", Workers: 2, Epochs: 1, Steps: 10,
	Batch: 8, Seed: 1, Momentum: 0.9, CheckpointEvery: 5,
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

// readJobs decodes a jobs file: a JSON array whose objects are each decoded
// on top of defaultJob. It owns the whole file contract, because a job it
// accepted is the job that runs: an unknown key (a typo such as
// "bucketbytes"), a count below 1 or a repeated name is an error, never a
// silently different job.
func readJobs(r io.Reader) ([]jobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if tok, err := dec.Token(); err != nil {
		return nil, err
	} else if tok != json.Delim('[') {
		return nil, fmt.Errorf("want an array of jobs, got %v", tok)
	}
	var specs []jobSpec
	names := map[string]bool{}
	for dec.More() {
		js := defaultJob
		js.Name = fmt.Sprintf("job%d", len(specs))
		if err := dec.Decode(&js); err != nil {
			return nil, fmt.Errorf("job %d: %w", len(specs), err)
		}
		if js.Name == "" {
			return nil, fmt.Errorf("job %d: empty name", len(specs))
		}
		counts := []string{"workers", "epochs", "steps", "batch", "checkpoint_every"}
		for i, v := range []int{js.Workers, js.Epochs, js.Steps, js.Batch, js.CheckpointEvery} {
			if v < 1 {
				return nil, fmt.Errorf("job %s: %q is %d, want at least 1", js.Name, counts[i], v)
			}
		}
		if names[js.Name] {
			return nil, fmt.Errorf("duplicate job name %q", js.Name)
		}
		names[js.Name] = true
		specs = append(specs, js)
	}
	if _, err := dec.Token(); err != nil {
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
	jobsPath := flag.String("jobs", "", "jobs file: a JSON array of job objects, or - for stdin (required)")
	poolN := flag.Int("pool", 8, "shared worker-slot pool across all jobs")
	dir := flag.String("dir", ".", "snapshot directory (-dir/<name>.snap per job)")
	resume := flag.Bool("resume", false, "resume every job whose snapshot file exists")
	transport := flag.String("transport", "inproc", "worker fabric: inproc|tcp")
	flag.Parse()
	if *jobsPath == "" {
		fmt.Fprintln(os.Stderr, "a2sgdserve: -jobs is required (a jobs file, or - for stdin)")
		flag.Usage()
		os.Exit(2)
	}
	tcp, err := useTCP(*transport)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	in := os.Stdin
	if *jobsPath != "-" {
		if in, err = os.Open(*jobsPath); err != nil {
			fmt.Fprintln(os.Stderr, "jobs:", err)
			os.Exit(2)
		}
	}
	specs, err := readJobs(in)
	in.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobs:", err)
		os.Exit(2)
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
