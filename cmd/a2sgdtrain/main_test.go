package main

import (
	"testing"

	"a2sgd"
)

// TestAutoResumePlansAtSnapshotWorld replays `-workers 4 -auto -snapshot s`
// then `-workers 2 -auto -resume s`: the second plan must be priced and
// stamped for the snapshot's four workers — planned at -workers, Train
// refuses it ("schedule planned for 2 workers, run configured for 4") — and
// the resumed run finishes the uninterrupted one's curve.
func TestAutoResumePlansAtSnapshotWorld(t *testing.T) {
	path := t.TempDir() + "/s.snap"
	plan := func(workers int, resume string) *a2sgd.Schedule {
		t.Helper()
		world, err := planWorkers(workers, resume)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := a2sgd.BuildSchedule("fnn3", a2sgd.PlanOptions{Workers: world, Pricer: a2sgd.IB100()})
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}
	tc := a2sgd.TrainConfig{
		Family: "fnn3", Workers: 4, Seed: 3,
		Epochs: 2, StepsPerEpoch: 4, BatchPerWorker: 4,
		CheckpointEvery: 4, SnapshotPath: path,
		Schedule: plan(4, ""),
	}
	full, err := a2sgd.Train(tc)
	if err != nil {
		t.Fatal(err)
	}
	tc.Workers, tc.SnapshotPath, tc.ResumePath = 2, "", path
	tc.Schedule = plan(2, path)
	if tc.Schedule.Workers != 4 {
		t.Fatalf("resumed plan stamped for %d workers, want the snapshot's 4", tc.Schedule.Workers)
	}
	resumed, err := a2sgd.Train(tc)
	if err != nil {
		t.Fatalf("resumed with -workers 2: %v", err)
	}
	if resumed.Workers != 4 {
		t.Errorf("resumed at world %d, want the snapshot's 4", resumed.Workers)
	}
	last := len(full.Epochs) - 1
	if got, want := resumed.Epochs[len(resumed.Epochs)-1], full.Epochs[last]; got != want {
		t.Errorf("resumed final epoch %+v, uninterrupted %+v", got, want)
	}
	if _, err := planWorkers(2, path+".missing"); err == nil {
		t.Error("unreadable snapshot must fail the plan")
	}
}

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
