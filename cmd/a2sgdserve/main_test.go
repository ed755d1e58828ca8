package main

import (
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

// TestReadJobsRejectsUnknownKeys: a misspelled or retired key in jobs.json
// is an error naming the key, never a silently different job.
func TestReadJobsRejectsUnknownKeys(t *testing.T) {
	for _, c := range []struct{ blob, key string }{
		{`[{"name": "a", "bucketbytes": 8192}]`, "bucketbytes"},
		{`[{"name": "a", "spec": "a2sgd", "replan": true}]`, "replan"},
	} {
		_, err := readJobs(strings.NewReader(c.blob))
		if err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("readJobs(%s) = %v; want an error naming %q", c.blob, err, c.key)
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

// TestBuildJobReplansOnlyAutoSpecs: "spec": "auto" is the replanning job
// (and may pin bucket_bytes), and drift_replan without it is an error.
func TestBuildJobReplansOnlyAutoSpecs(t *testing.T) {
	snap := t.TempDir() + "/j.snap"
	build := func(js jobSpec) (*a2sgd.Job, error) {
		js.defaults(0)
		return buildJob(js, snap, false, false, nil, nil)
	}
	job, err := build(jobSpec{Spec: "auto", BucketBytes: 8192, DriftReplan: true})
	if err != nil {
		t.Fatal(err)
	}
	if job.Replan == nil || !job.DriftReplan {
		t.Errorf("auto job: Replan set %v, DriftReplan %v", job.Replan != nil, job.DriftReplan)
	}
	if job, err := build(jobSpec{Spec: "a2sgd"}); err != nil || job.Replan != nil {
		t.Errorf("a2sgd job: replan set %v, err %v", job != nil && job.Replan != nil, err)
	}
	if _, err := build(jobSpec{Spec: "a2sgd", DriftReplan: true}); err == nil {
		t.Error("drift_replan without an auto spec must be an error")
	}
}
