package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/tensor"
)

// launchProbe is the test-only spec decorator launchprobe(inner, bucket=b):
// it logs its bucket index, per rank, whenever the bucket's exchange runs, and
// is otherwise the inner algorithm. At Concurrency <= 1 exchanges execute in
// posting order, so each rank's log is the order its step launched buckets in.
type launchProbe struct {
	compress.Algorithm
	bucket int
}

var launchLog struct {
	sync.Mutex
	byRank map[int][]int
}

func init() {
	compress.Register("launchprobe", compress.Builder{
		Summary: "test: logs the order bucket exchanges run in",
		Params:  []compress.ParamSpec{{Name: "bucket", Kind: compress.ParamInt, Doc: "bucket index logged"}},
		Wraps:   1,
		Build: func(_ compress.Options, args compress.BuildArgs) (compress.Algorithm, error) {
			return &launchProbe{Algorithm: args.Inner[0], bucket: args.Int("bucket", 0)}, nil
		},
	})
}

func (l *launchProbe) ExchangeView(p compress.Payload, v *tensor.VecView, c *comm.Communicator) error {
	launchLog.Lock()
	launchLog.byRank[c.Rank()] = append(launchLog.byRank[c.Rank()], l.bucket)
	launchLog.Unlock()
	return l.Algorithm.ExchangeView(p, v, c)
}

// TestLaunchOrderPerMode pins the one thing the step decides about the
// pipeline: the order it launches buckets in. Per-bucket arithmetic is
// order-independent, so the bitwise matrices cannot see a rank-uniform
// reorder; anything that combines buckets in a fixed order rests on this.
func TestLaunchOrderPerMode(t *testing.T) {
	const workers, steps, histStep = 4, 4, 2
	modes := []struct {
		label               string
		overlap, interleave bool
	}{
		{"serial", false, false},
		{"overlap", true, false},
		{"interleave", true, true},
	}
	for _, m := range modes {
		cfg := bucketCfg("a2sgd", workers, fourBucketBytes, m.overlap)
		cfg.Epochs, cfg.StepsPerEpoch = 1, steps
		cfg.Interleave = m.interleave
		cfg.HistIters = []int{histStep}
		nb := len(cfg.Schedule.Specs)
		for b, sp := range cfg.Schedule.Specs {
			w, err := compress.Parse(fmt.Sprintf("launchprobe(%s, bucket=%d)", sp, b))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Schedule.Specs[b] = w
		}
		launchLog.byRank = map[int][]int{}
		if _, err := Train(cfg); err != nil {
			t.Fatalf("%s: %v", m.label, err)
		}
		if nb < 4 {
			t.Fatalf("%s: plan produced %d buckets, want >= 4", m.label, nb)
		}
		asc, desc := make([]int, nb), make([]int, nb)
		for b := range asc {
			asc[b], desc[b] = b, nb-1-b
		}
		for rank := 0; rank < workers; rank++ {
			log := launchLog.byRank[rank]
			if len(log) != steps*nb {
				t.Fatalf("%s rank %d: %d exchanges over %d steps of %d buckets", m.label, rank, len(log), steps, nb)
			}
			for s := 0; s < steps; s++ {
				// A histogram step launches after the backward pass, in
				// ascending order, on every rank — not just the capturing one.
				want := asc
				if m.interleave && s != histStep {
					want = desc
				}
				if got := log[s*nb : (s+1)*nb]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s rank %d step %d: launched %v, want %v", m.label, rank, s, got, want)
				}
			}
		}
	}
}
