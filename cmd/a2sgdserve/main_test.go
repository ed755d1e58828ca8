package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"a2sgd"
)

// TestUseTCP: -transport names a fabric or is a usage error — a typo must
// not silently train in-process.
func TestUseTCP(t *testing.T) {
	for _, c := range []struct {
		transport string
		tcp, ok   bool
	}{
		{"inproc", false, true},
		{"tcp", true, true},
		{"tpc", false, false},
		{"TCP", false, false},
		{"", false, false},
	} {
		tcp, err := useTCP(c.transport)
		if (err == nil) != c.ok || tcp != c.tcp {
			t.Errorf("useTCP(%q) = %v, %v; want tcp=%v ok=%v", c.transport, tcp, err, c.tcp, c.ok)
		}
	}
}

// TestReadJobsDefaults: an object that writes only a name runs the default
// job, and a key written out — 0 included — is what runs.
func TestReadJobsDefaults(t *testing.T) {
	specs, err := readJobs(strings.NewReader(`[{"name": "a"}, {"momentum": 0, "seed": 0, "spec": "dense"}]`))
	if err != nil {
		t.Fatal(err)
	}
	want := []jobSpec{{
		Name: "a", Family: "fnn3", Spec: "a2sgd", Workers: 2, Epochs: 1, Steps: 10,
		Batch: 8, Seed: 1, Momentum: 0.9, CheckpointEvery: 5,
	}, {
		Name: "job1", Family: "fnn3", Spec: "dense", Workers: 2, Epochs: 1, Steps: 10,
		Batch: 8, CheckpointEvery: 5,
	}}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("readJobs = %+v\nwant %+v", specs, want)
	}
}

// TestReadJobsRejectsUnknownKeys: a misspelled or retired key, a count below
// 1, an empty or repeated name, or a file that is not an array is an error
// naming the job and the key, never a silently different job.
func TestReadJobsRejectsUnknownKeys(t *testing.T) {
	for _, c := range []struct{ blob, job, key string }{
		{`[{"name": "a", "bucketbytes": 8192}]`, "job 0", "bucketbytes"},
		{`[{"name": "a", "spec": "a2sgd", "replan": true}]`, "job 0", "replan"},
		{`[{"name": "a", "workers": -3}]`, "job a", `"workers" is -3`},
		{`[{"name": "a", "epochs": 0}]`, "job a", `"epochs" is 0`},
		{`[{"name": "a", "steps": 0}]`, "job a", `"steps" is 0`},
		{`[{"name": "a", "batch": -1}]`, "job a", `"batch" is -1`},
		{`[{"name": "a", "checkpoint_every": 0}]`, "job a", `"checkpoint_every" is 0`},
		{`[{"workers": 0}]`, "job job0", `"workers" is 0`},
		{`[{"name": ""}]`, "job 0", "empty name"},
		{`[{"name": "a"}, {"name": "a"}]`, "job name", `"a"`},
		{`[{}, {"name": "job0"}]`, "job name", `"job0"`},
		{`{"name": "a"}`, "array", "{"},
	} {
		_, err := readJobs(strings.NewReader(c.blob))
		if err == nil || !strings.Contains(err.Error(), c.job) || !strings.Contains(err.Error(), c.key) {
			t.Errorf("readJobs(%s) = %v; want an error naming %q and %q", c.blob, err, c.job, c.key)
		}
	}
	specs, err := readJobs(strings.NewReader(`[{"name": "a", "spec": "auto", "bucket_bytes": 8192, "drift_replan": true}]`))
	if err != nil || len(specs) != 1 || specs[0].BucketBytes != 8192 || !specs[0].DriftReplan {
		t.Errorf("valid jobs file: %+v, %v", specs, err)
	}
	if _, err := readJobs(strings.NewReader(`[]`)); err == nil {
		t.Error("empty job list must be an error")
	}
}

// FuzzReadJobs: readJobs takes a file from outside. Whatever the bytes, it
// returns, does not panic, and allocates in proportion to the input. The
// bound allows for a 3-byte "{}," that decodes to a 152-byte jobSpec, in a
// slice whose growth allocates up to about six times its final length, plus
// its default name and that name's entry in the duplicate check
// (`[{},{},…]` reads ≈ 310 bytes per input byte at 50 000 jobs). A list it
// accepts encodes back to one it reads the same.
func FuzzReadJobs(f *testing.F) {
	for _, seed := range []string{
		`[{"name": "a", "spec": "auto", "bucket_bytes": 8192, "drift_replan": true}, {"family": "lstm", "workers": 3, "faults": "deadline(5s)"}]`,
		`[{"name": "a", "bucketbytes": 8192}]`,
		`[]`,
		`[{"name": "a", "spec": "a2s`,
		`[{"name": "a", "workers": -3}]`,
		`[{"name": "a", "checkpoint_every": 0}]`,
		`[{"name": "a"}, {"name": "a"}]`,
		`[{"momentum": 0}, {"name": ""}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		specs, err := readJobs(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 64<<10+512*uint64(len(data)); n > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(data), n, limit)
		}
		if err != nil {
			return
		}
		out, err := json.Marshal(specs)
		if err != nil {
			t.Fatalf("accepted jobs do not encode: %v", err)
		}
		again, err := readJobs(bytes.NewReader(out))
		if err != nil || !reflect.DeepEqual(again, specs) {
			t.Fatalf("accepted jobs %+v read back as %+v, %v", specs, again, err)
		}
	})
}

// TestBuildJobReplansOnlyAutoSpecs: "spec": "auto" is the replanning job
// (and may pin bucket_bytes), and drift_replan without it is an error.
func TestBuildJobReplansOnlyAutoSpecs(t *testing.T) {
	snap := t.TempDir() + "/j.snap"
	build := func(spec string, bucketBytes int, driftReplan bool) (*a2sgd.Job, error) {
		js := defaultJob
		js.Name, js.Spec, js.BucketBytes, js.DriftReplan = "j", spec, bucketBytes, driftReplan
		return buildJob(js, snap, false, false, nil, nil)
	}
	job, err := build("auto", 8192, true)
	if err != nil {
		t.Fatal(err)
	}
	if job.Replan == nil || !job.DriftReplan {
		t.Errorf("auto job: Replan set %v, DriftReplan %v", job.Replan != nil, job.DriftReplan)
	}
	if job, err := build("a2sgd", 0, false); err != nil || job.Replan != nil {
		t.Errorf("a2sgd job: replan set %v, err %v", job != nil && job.Replan != nil, err)
	}
	if _, err := build("a2sgd", 0, true); err == nil {
		t.Error("drift_replan without an auto spec must be an error")
	}
}

// TestBuildJobMixedPolicy: a jobs.json "spec" may be a per-bucket policy.
// fnn3 at bucket_bytes 8192 buckets into raw sizes [16384, 256, 12288,
// 7784]B, so threshold=8KiB sends buckets 0 and 2 to big and 1 and 3 to
// small.
func TestBuildJobMixedPolicy(t *testing.T) {
	const mixed = "mixed(big=a2sgd, small=dense, threshold=8KiB)"
	specs, err := readJobs(strings.NewReader(`[{"name": "mix", "spec": "` + mixed + `", "bucket_bytes": 8192}]`))
	if err != nil {
		t.Fatal(err)
	}
	job, err := buildJob(specs[0], t.TempDir()+"/mix.snap", false, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := job.Config.Schedule
	var got []string
	for _, sp := range sched.Specs {
		got = append(got, sp.String())
	}
	if want := []string{"a2sgd", "dense", "a2sgd", "dense"}; !reflect.DeepEqual(got, want) {
		t.Errorf("bucket specs %q, want %q", got, want)
	}
	if sched.Policy != mixed || job.Replan != nil {
		t.Errorf("schedule policy %q, replan set %v; want %q and no replan", sched.Policy, job.Replan != nil, mixed)
	}
}

// TestBuildJobRejectsFaultsOutsideTheWorld: a jobs.json job whose fault rule
// names a rank the job does not have fails to build (the gateway exits 2)
// with an error naming the job and the rule, instead of training with a
// fault that never fires.
func TestBuildJobRejectsFaultsOutsideTheWorld(t *testing.T) {
	specs, err := readJobs(strings.NewReader(`[{"name": "j", "workers": 2, "faults": "deadline(2s) crash(rank=5, step=1)"}]`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = buildJob(specs[0], t.TempDir()+"/j.snap", false, false, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "job j") || !strings.Contains(err.Error(), "crash(rank=5, step=1)") {
		t.Errorf("buildJob = %v, want an error naming job j and crash(rank=5, step=1)", err)
	}
}
