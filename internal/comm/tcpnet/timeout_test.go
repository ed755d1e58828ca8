package tcpnet

import (
	"errors"
	"testing"
	"time"

	"a2sgd/internal/comm"
)

// TestRecvTimeoutIsTypedAndNonSticky: a Recv that expires waiting for a frame
// header returns a typed, timeout-flagged *comm.PeerError, and — because no
// bytes moved — the stream stays usable: a later matching Send is received
// intact.
func TestRecvTimeoutIsTypedAndNonSticky(t *testing.T) {
	ts, shutdown, err := NewLocalMeshConfig(2, Config{IOTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	start := time.Now()
	err = ts[1].Recv(0, 7, make([]float32, 4))
	if err == nil {
		t.Fatal("Recv with no sender returned nil")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Recv took %v to expire (deadline 100ms)", elapsed)
	}
	var pe *comm.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("Recv timeout is not a *comm.PeerError: %v", err)
	}
	if pe.Rank != 0 || pe.Op != "recv" || !pe.Timeout {
		t.Fatalf("PeerError fields: %+v, want Rank=0 Op=recv Timeout=true", pe)
	}

	// Clean header expiry must not poison the stream.
	want := []float32{1, 2, 3, 4}
	if err := ts[0].Send(1, 7, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 4)
	if err := ts[1].Recv(0, 7, got); err != nil {
		t.Fatalf("Recv after clean timeout: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload after timeout: %v, want %v", got, want)
		}
	}
}

// TestRecvFromClosedPeerFailsFast: a peer that closes its transport makes
// pending receives fail promptly instead of blocking until a (possibly
// absent) deadline.
func TestRecvFromClosedPeerFailsFast(t *testing.T) {
	ts, shutdown, err := NewLocalMeshConfig(2, Config{IOTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	done := make(chan error, 1)
	go func() {
		done <- ts[1].Recv(0, 3, make([]float32, 8))
	}()
	time.Sleep(10 * time.Millisecond)
	ts[0].Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv from closed peer returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv from closed peer still blocked after 5s")
	}
}

// TestZeroTimeoutPreservesBlockingBehavior: the default Config keeps the
// historical no-deadline semantics — a Recv outlives a delay far beyond any
// configured timeout and still completes.
func TestZeroTimeoutPreservesBlockingBehavior(t *testing.T) {
	ts, shutdown, err := NewLocalMesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	done := make(chan error, 1)
	got := make([]float32, 2)
	go func() {
		done <- ts[1].Recv(0, 1, got)
	}()
	time.Sleep(300 * time.Millisecond) // longer than the other tests' deadlines
	if err := ts[0].Send(1, 1, []float32{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 || got[1] != 6 {
		t.Fatalf("payload: %v", got)
	}
}

// TestGroupTimeoutSurfacesFromCollective: the deadline threads through the
// communicator layer — a rank that never joins a collective makes its peers'
// collective fail with a typed timeout instead of deadlocking the group.
func TestGroupTimeoutSurfacesFromCollective(t *testing.T) {
	ts, shutdown, err := NewLocalMeshConfig(2, Config{IOTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// Rank 1 never participates; rank 0's allreduce must expire.
	start := time.Now()
	err = comm.NewCommunicator(ts[0]).AllreduceSum(make([]float32, 64), comm.AlgoRing)
	if err == nil {
		t.Fatal("collective with an absent peer returned nil")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("collective took %v to expire (deadline 150ms)", elapsed)
	}
	var pe *comm.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("collective timeout is not a *comm.PeerError: %v", err)
	}
	if !pe.Timeout {
		t.Fatalf("PeerError not flagged as timeout: %+v", pe)
	}
}
