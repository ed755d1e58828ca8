package elastic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"a2sgd/internal/cluster"
)

// hostileHeader is a snapshot prefix — magic, version, an empty family, the
// scalar fields — followed by the given u32 fields and nothing else.
func hostileHeader(fields ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, snapMagic)
	b = binary.LittleEndian.AppendUint32(b, snapVersion)
	b = binary.LittleEndian.AppendUint32(b, 0) // family ""
	b = binary.LittleEndian.AppendUint64(b, 1) // seed
	for range 5 {                              // epochs, steps/epoch, step, world, params
		b = binary.LittleEndian.AppendUint32(b, 1)
	}
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint32(b, f)
	}
	return b
}

// hostileSnapshots are truncated files whose length fields claim far more
// than they hold: a worker's params vector of 2³⁰ floats (4 GiB) and a
// history of 2²⁴ epochs.
var hostileSnapshots = map[string][]byte{
	// bounds 0, history 0, one worker of rank 0 with 2³⁰ params.
	"params-2^30": hostileHeader(0, 0, 1, 0, 1<<30),
	// bounds 0, history 2²⁴.
	"history-2^24": hostileHeader(0, 1<<24),
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadSnapshotHostileLengths: a length field is a bound, not an
// allocation — a truncated file claiming gigabytes fails as truncated
// having allocated about what it holds.
func TestReadSnapshotHostileLengths(t *testing.T) {
	for name, data := range hostileSnapshots {
		var err error
		n := allocated(func() { _, err = ReadSnapshot(bytes.NewReader(data)) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s (%d bytes): err %v, want a truncated-snapshot error wrapping io.ErrUnexpectedEOF", name, len(data), err)
		}
		if n > 1<<20 {
			t.Errorf("%s (%d bytes): ReadSnapshot allocated %d KiB, want at most 1 MiB", name, len(data), n>>10)
		}
	}
}

// FuzzReadSnapshot: ReadSnapshot consumes -resume files from disk, so on
// arbitrary bytes it must fail or load without panicking, allocate at most a
// constant times what the input holds, and accept only what WriteSnapshot
// writes — every accepted input re-serializes to the same bytes.
func FuzzReadSnapshot(f *testing.F) {
	for _, c := range []struct{ family, spec string }{
		{"fnn3", "topk(density=0.05)"}, // error feedback vectors
		{"fnn3", "qsgd"},               // RNG words
		{"lstm", "a2sgd"},
	} {
		cfg := testConfig(c.family, c.spec, 1)
		cfg.Epochs, cfg.StepsPerEpoch, cfg.BatchPerWorker, cfg.CheckpointEvery = 1, 3, 2, 2
		var buf bytes.Buffer
		cfg.SnapshotSink = func(rs *cluster.RunState) error {
			if rs.Step == 2 {
				return WriteSnapshot(&buf, rs)
			}
			return nil
		}
		if _, err := cluster.Train(cfg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, name := range []string{"params-2^30", "history-2^24"} {
		f.Add(hostileSnapshots[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rs *cluster.RunState
		var err error
		n := allocated(func() { rs, err = ReadSnapshot(bytes.NewReader(data)) })
		if limit := 256<<10 + 64*uint64(len(data)); n > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(data), n, limit)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSnapshot(&out, rs); err != nil {
			t.Fatalf("accepted snapshot does not re-serialize: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-serialize to %d different bytes", len(data), out.Len())
		}
	})
}
