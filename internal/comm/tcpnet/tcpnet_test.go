package tcpnet

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// runTCPGroup mirrors comm.RunGroup over real sockets.
func runTCPGroup(t *testing.T, size int, body func(c *comm.Communicator) error) error {
	t.Helper()
	cs, shutdown, err := NewLocalGroup(size)
	if err != nil {
		t.Fatalf("NewLocalGroup(%d): %v", size, err)
	}
	defer shutdown()
	errs := make(chan error, size)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *comm.Communicator) {
			defer wg.Done()
			if err := body(c); err != nil {
				errs <- err
				shutdown()
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

func TestTCPAllreduceMatchesInproc(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5} {
		n := 2000
		ins := make([][]float32, p)
		want := make([]float32, n)
		for r := 0; r < p; r++ {
			rng := tensor.NewRNG(uint64(100 + r))
			v := make([]float32, n)
			rng.NormVec(v, 0, 1)
			ins[r] = v
			for i := range want {
				want[i] += v[i]
			}
		}
		// Reference result through the in-process fabric.
		inprocOut := make([][]float32, p)
		var mu sync.Mutex
		if err := comm.RunGroup(p, func(c *comm.Communicator) error {
			v := append([]float32(nil), ins[c.Rank()]...)
			if err := c.AllreduceSum(v, comm.AlgoRing); err != nil {
				return err
			}
			mu.Lock()
			inprocOut[c.Rank()] = v
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Same collective over TCP must produce bit-identical results
		// (same algorithm, same reduction order).
		err := runTCPGroup(t, p, func(c *comm.Communicator) error {
			v := append([]float32(nil), ins[c.Rank()]...)
			if err := c.AllreduceSum(v, comm.AlgoRing); err != nil {
				return err
			}
			ref := inprocOut[c.Rank()]
			for i := range v {
				if v[i] != ref[i] {
					return fmt.Errorf("rank %d elem %d: tcp %v vs inproc %v", c.Rank(), i, v[i], ref[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestTCPAllCollectives(t *testing.T) {
	p := 4
	err := runTCPGroup(t, p, func(c *comm.Communicator) error {
		// Allreduce (both algorithms).
		v := []float32{float32(c.Rank()), 1}
		if err := c.AllreduceSum(v, comm.AlgoRecursiveDoubling); err != nil {
			return err
		}
		if v[0] != 6 || v[1] != 4 {
			return fmt.Errorf("recdbl allreduce got %v", v)
		}
		// Allgather.
		out := make([]float32, p)
		if err := c.Allgather([]float32{float32(c.Rank() * 10)}, out); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if out[r] != float32(r*10) {
				return fmt.Errorf("allgather got %v", out)
			}
		}
		// AllgatherV.
		in := make([]float32, c.Rank())
		gv, lens, err := c.AllgatherV(in)
		if err != nil {
			return err
		}
		if len(gv) != 0+1+2+3 || lens[3] != 3 {
			return fmt.Errorf("allgatherv got len %d lens %v", len(gv), lens)
		}
		// Broadcast.
		b := []float32{0}
		if c.Rank() == 2 {
			b[0] = 42
		}
		if err := c.Broadcast(b, 2); err != nil {
			return err
		}
		if b[0] != 42 {
			return fmt.Errorf("broadcast got %v", b[0])
		}
		// Reduce.
		rv := []float32{1}
		if err := c.Reduce(rv, 0); err != nil {
			return err
		}
		if c.Rank() == 0 && rv[0] != float32(p) {
			return fmt.Errorf("reduce got %v", rv[0])
		}
		// Barrier.
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPBitExactPayload(t *testing.T) {
	// Index bit-casting must survive the wire: NaN payloads carry index bits.
	err := runTCPGroup(t, 2, func(c *comm.Communicator) error {
		idx := uint32(0x7fc00123) // a NaN pattern if interpreted as float
		if c.Rank() == 0 {
			out := make([]float32, 2)
			return c.Allgather([]float32{comm.Float32FromIndex(idx)}, out)
		}
		out := make([]float32, 2)
		if err := c.Allgather([]float32{comm.Float32FromIndex(idx)}, out); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if comm.Float32ToIndex(out[i]) != idx {
				return fmt.Errorf("bit pattern corrupted: %x", comm.Float32ToIndex(out[i]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPWorkerDeathSurfacesAsError(t *testing.T) {
	// Failure injection: one worker closes its transport mid-collective;
	// its peer must get an error, not hang.
	cs, shutdown, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	done := make(chan error, 1)
	go func() {
		v := make([]float32, 100000)
		done <- cs[0].AllreduceSum(v, comm.AlgoRing)
	}()
	// Rank 1 "dies" without participating.
	_ = cs[1].Close()
	if err := <-done; err == nil {
		t.Fatal("expected error after peer death, got nil")
	}
}

func TestTCPInvalidPeer(t *testing.T) {
	cs, shutdown, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	_ = cs
	tr := &Transport{rank: 0, size: 2}
	if err := tr.Send(0, 0, nil); err == nil {
		t.Error("self-send should error")
	}
	if err := tr.Send(5, 0, nil); err == nil {
		t.Error("out-of-range peer should error")
	}
	if err := tr.Recv(-1, 0, nil); err == nil {
		t.Error("negative peer should error")
	}
}

func TestTCPTrafficCounting(t *testing.T) {
	err := runTCPGroup(t, 2, func(c *comm.Communicator) error {
		v := make([]float32, 512)
		if err := c.AllreduceSum(v, comm.AlgoRecursiveDoubling); err != nil {
			return err
		}
		tr := c.Traffic()
		if tr.BytesSent != 512*4 { // one round for P=2
			return fmt.Errorf("sent %d bytes, want %d", tr.BytesSent, 512*4)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadFullShortReads(t *testing.T) {
	r := &chunkReader{data: []byte{1, 2, 3, 4, 5}}
	buf := make([]byte, 5)
	n, err := readFull(r, buf)
	if err != nil || n != 5 {
		t.Fatalf("readFull: n=%d err=%v", n, err)
	}
	for i := range buf {
		if buf[i] != byte(i+1) {
			t.Fatalf("buf[%d]=%d", i, buf[i])
		}
	}
}

type chunkReader struct {
	data []byte
	pos  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.pos >= len(c.data) {
		return 0, fmt.Errorf("EOF")
	}
	p[0] = c.data[c.pos] // one byte at a time
	c.pos++
	return 1, nil
}

func TestFloat32NaNBitsPreserved(t *testing.T) {
	// Direct check that encode/decode in Send/Recv preserves NaN payload bits.
	f := math.Float32frombits(0x7fc00456)
	bits := math.Float32bits(f)
	if bits != 0x7fc00456 {
		t.Skip("platform canonicalizes NaN in float32 round trip")
	}
}

func TestRunGroupHelper(t *testing.T) {
	err := RunGroup(3, func(c *comm.Communicator) error {
		v := []float32{1}
		if err := c.AllreduceSum(v, comm.AlgoAuto); err != nil {
			return err
		}
		if v[0] != 3 {
			return fmt.Errorf("sum %v", v[0])
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunGroupHelperPropagatesError(t *testing.T) {
	sentinel := fmt.Errorf("worker failure")
	err := RunGroup(2, func(c *comm.Communicator) error {
		if c.Rank() == 1 {
			return sentinel
		}
		// Rank 0 blocks in a collective; shutdown must release it with an
		// error rather than hang.
		return c.Barrier()
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// postedOp is the test's comm.Op: an Allgather of v into out when out is set,
// otherwise AllreduceMean of v.
type postedOp struct{ v, out []float32 }

func (o *postedOp) RunOp(cc *comm.Communicator) error {
	if o.out != nil {
		return cc.Allgather(o.v, o.out)
	}
	return cc.AllreduceMean(o.v, comm.AlgoAuto)
}

// TestNonblockingCollectivesOverTCP runs the nonblocking allreduce/allgather
// path over real loopback sockets: the progress worker sits above the
// Transport interface, so the same pipeline must work on tcpnet unchanged.
func TestNonblockingCollectivesOverTCP(t *testing.T) {
	const p, n = 3, 300
	err := RunGroup(p, func(c *comm.Communicator) error {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(c.Rank()*n + i)
		}
		in := []float32{float32(c.Rank() + 1)}
		out := make([]float32, p)
		r1 := c.Post(&postedOp{v: v})
		r2 := c.Post(&postedOp{v: in, out: out})
		if err := r1.Wait(); err != nil {
			return err
		}
		if err := r2.Wait(); err != nil {
			return err
		}
		for i := range v {
			want := float32(0)
			for r := 0; r < p; r++ {
				want += float32(r*n + i)
			}
			want /= p
			if v[i] != want {
				return fmt.Errorf("rank %d: v[%d]=%v want %v", c.Rank(), i, v[i], want)
			}
		}
		for r := 0; r < p; r++ {
			if out[r] != float32(r+1) {
				return fmt.Errorf("rank %d: out[%d]=%v", c.Rank(), r, out[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
