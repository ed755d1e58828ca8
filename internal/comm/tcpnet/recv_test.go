package tcpnet

import (
	"encoding/binary"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"a2sgd/internal/comm"
)

// TestRecvLengthMismatchKeepsStream: a receiver whose buffer length differs
// from the frame of its tag gets a length-mismatch error, and the frame's
// payload is consumed with it, so the next Recv reads the next frame's
// header and not payload bits. The first payload's bits would read as a
// small tag-6 frame if they were taken for a header, so a receiver that
// loses step fails fast here rather than hanging.
func TestRecvLengthMismatchKeepsStream(t *testing.T) {
	ts, shutdown, err := NewLocalMeshConfig(2, Config{IOTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	first := []float32{math.Float32frombits(6), math.Float32frombits(2), 7.5, -1.25}
	if err := ts[0].Send(1, 5, first); err != nil {
		t.Fatal(err)
	}
	if err := ts[0].Send(1, 6, []float32{3, 4}); err != nil {
		t.Fatal(err)
	}
	err = ts[1].Recv(0, 5, make([]float32, 3))
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("Recv(tag 5, len 3) of a 4-element frame: %v, want a length mismatch", err)
	}
	for round, want := range [][]float32{{3, 4}, {-8, 9}} {
		if round > 0 {
			if err := ts[0].Send(1, 6, want); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]float32, 2)
		if err := ts[1].Recv(0, 6, got); err != nil {
			t.Fatalf("Recv(tag 6) after the mismatch, round %d: %v", round, err)
		}
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("Recv(tag 6) after the mismatch, round %d: %v, want %v", round, got, want)
		}
	}
}

// waitFor polls ts's read state for peer, under its lock, until cond holds.
func waitFor(t *testing.T, ts *Transport, peer int, cond func(*peerState) bool) {
	t.Helper()
	ps := &ts.peers[peer]
	for deadline := time.Now().Add(5 * time.Second); ; {
		ps.rmu.Lock()
		ok := cond(ps)
		ps.rmu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("receive state not reached after 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentReceiversOutOfOrder: three receivers wait on one peer at
// once, one reading the stream and two blocked behind it, while the sender
// sends their frames in reverse order. The two whose buffers fit get their
// payloads bit for bit; the third, waiting with the wrong length, still gets
// the mismatch error; and the stream stays in step afterwards.
func TestConcurrentReceiversOutOfOrder(t *testing.T) {
	ts, shutdown, err := NewLocalMeshConfig(2, Config{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	nan := math.Float32frombits(0x7fc00123)
	frames := []struct {
		tag  int
		data []float32
		recv int // the receiver's buffer length
	}{
		{10, []float32{1, nan, -2.5}, 3},
		{11, []float32{math.Float32frombits(1), 4, 5, 6, float32(math.Inf(-1))}, 5},
		{12, []float32{7, 8, 9, 10}, 2},
	}
	type result struct {
		got []float32
		err error
	}
	results := make([]chan result, len(frames))
	for i, f := range frames {
		results[i] = make(chan result, 1)
		go func(tag int, got []float32, out chan<- result) {
			err := ts[1].Recv(0, tag, got)
			out <- result{got, err}
		}(f.tag, make([]float32, f.recv), results[i])
	}
	// Let every receiver reach the stream before the first frame; any other
	// arrival order must deliver the same results.
	waitFor(t, ts[1], 0, func(ps *peerState) bool { return ps.pulling })
	time.Sleep(20 * time.Millisecond)
	for i := len(frames) - 1; i >= 0; i-- {
		if err := ts[0].Send(1, frames[i].tag, frames[i].data); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range frames {
		r := <-results[i]
		if f.recv != len(f.data) {
			if r.err == nil || !strings.Contains(r.err.Error(), "length mismatch") {
				t.Errorf("tag %d: %v, want a length mismatch", f.tag, r.err)
			}
			continue
		}
		if r.err != nil {
			t.Errorf("tag %d: %v", f.tag, r.err)
			continue
		}
		for j := range f.data {
			if math.Float32bits(r.got[j]) != math.Float32bits(f.data[j]) {
				t.Errorf("tag %d element %d: %08x, want %08x", f.tag, j,
					math.Float32bits(r.got[j]), math.Float32bits(f.data[j]))
			}
		}
	}
	if err := ts[0].Send(1, 13, []float32{11}); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 1)
	if err := ts[1].Recv(0, 13, got); err != nil || got[0] != 11 {
		t.Fatalf("Recv after the concurrent receivers: %v, %v", got, err)
	}
}

// TestConcurrentTCPAllreduceZeroAlloc pins the zero-allocation contract of
// the receive path over real sockets in sync-dense's shape: two ranks, two
// tag-space contexts, two posted AllreduceMeans per step whose frames
// interleave on each link, so frames get stashed and copied out. A warm
// step allocates nothing beyond sendRecv's send goroutines:
// on a rendezvous transport each ring step starts one, and its argument
// capture is one allocation — 2(P−1) ring steps per AllreduceMean, two
// posts, two ranks. A persistent per-link writer (the wire rung's latency
// half in ROADMAP.md) would take that constant to 0; any other allocation
// fails here.
func TestConcurrentTCPAllreduceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n, ranks, posts = 1 << 16, 2, 2
	const sendRecvSpawns = 2 * (ranks - 1) * posts * ranks
	cs, shutdown, err := NewLocalGroup(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	type state struct {
		ops  [posts]postedOp
		reqs []comm.Request
	}
	states := make([]*state, ranks)
	for r, c := range cs {
		if err := c.SetConcurrency(2); err != nil {
			t.Fatal(err)
		}
		st := &state{reqs: make([]comm.Request, 0, posts)}
		for i := range st.ops {
			st.ops[i].v = make([]float32, n)
		}
		states[r] = st
	}
	step := func(r int) error {
		st := states[r]
		st.reqs = st.reqs[:0]
		for i := range st.ops {
			st.reqs = append(st.reqs, cs[r].Post(&st.ops[i]))
		}
		return comm.WaitAll(st.reqs)
	}
	peerDone := make(chan error, 1)
	go func() {
		for {
			if err := step(1); err != nil {
				peerDone <- err // the mesh shutting down ends the loop
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if err := step(0); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, func() {
		if err := step(0); err != nil {
			t.Fatal(err)
		}
	})
	shutdown()
	<-peerDone
	if extra := allocs - sendRecvSpawns; extra != 0 {
		t.Errorf("%.0f allocs per steady-state step of two posted AllreduceMeans beyond the %d send-goroutine spawns, want 0",
			extra, sendRecvSpawns)
	}
}

// FuzzRecvFrames: a peer's byte stream is input from outside. Whatever the
// bytes, a receiver's Recvs return — a frame, a length mismatch or the
// stream's end — without a panic, reach the end of the stream, and allocate
// in proportion to the bytes that arrived, whatever lengths the frame
// headers claim. Every frame not on the receiver's tag is stashed.
func FuzzRecvFrames(f *testing.F) {
	frame := func(tag, n uint32, payload ...float32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, tag)
		b = binary.LittleEndian.AppendUint32(b, n)
		for _, x := range payload {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		return b
	}
	f.Add(slices.Concat(frame(2, 2, 1, 2), frame(1, 4, 3, 4, 5, 6), frame(3, 0))) // stashed, wanted, stashed
	f.Add(frame(1, 3, 1, 2, 3))                                                   // a length mismatch on the wanted tag
	f.Add(frame(2, 1<<24, 1, 2))                                                  // 64 MiB claimed, 8 bytes sent
	f.Add(frame(2, math.MaxUint32))                                               // the largest claim, stashed
	f.Add(frame(1, math.MaxUint32))                                               // the largest claim, wanted
	f.Add([]byte{1, 0, 0})                                                        // a torn header
	f.Fuzz(func(t *testing.T, data []byte) {
		local, remote := net.Pipe()
		tr := newTransport(1, 2, nil, Config{})
		tr.setConn(0, local)
		defer tr.Close()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			_, _ = remote.Write(data)
			remote.Close()
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// Every Recv takes at least one 8-byte header off the stream, or
		// ends with the stream's error.
		ps, buf := &tr.peers[0], make([]float32, 4)
		for i := 0; i <= len(data)/8 && ps.rerr == nil; i++ {
			_ = tr.Recv(0, 1, buf)
		}
		runtime.ReadMemStats(&after)
		tr.Close()
		<-sent
		if ps.rerr == nil {
			t.Fatalf("%d-byte stream not at its end after %d Recvs", len(data), len(data)/8+1)
		}
		if n, limit := after.TotalAlloc-before.TotalAlloc, 256<<10+64*uint64(len(data)); n > limit {
			t.Fatalf("%d-byte stream allocated %d bytes (limit %d)", len(data), n, limit)
		}
	})
}
