package comm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"a2sgd/internal/tensor"
)

var groupSizes = []int{1, 2, 3, 4, 5, 7, 8, 16}

// makeInputs builds deterministic per-rank vectors and their elementwise sum.
func makeInputs(p, n int, seed uint64) (ins [][]float32, sum []float32) {
	ins = make([][]float32, p)
	sum = make([]float32, n)
	for r := 0; r < p; r++ {
		rng := tensor.NewRNG(seed + uint64(r)*1000)
		v := make([]float32, n)
		rng.NormVec(v, 0, 1)
		ins[r] = v
		for i := range sum {
			sum[i] += v[i]
		}
	}
	return ins, sum
}

func checkClose(t *testing.T, got, want []float32, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		d := math.Abs(float64(got[i] - want[i]))
		if d > tol && d > tol*math.Abs(float64(want[i])) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestAllreduceSumAllAlgos(t *testing.T) {
	for _, p := range groupSizes {
		for _, n := range []int{1, 2, 3, 17, 1000, 5000} {
			for _, algo := range []AllreduceAlgorithm{AlgoAuto, AlgoRing, AlgoRecursiveDoubling} {
				ins, want := makeInputs(p, n, 42)
				var mu sync.Mutex
				got := make([][]float32, p)
				err := RunGroup(p, func(c *Communicator) error {
					v := append([]float32(nil), ins[c.Rank()]...)
					if err := c.AllreduceSum(v, algo); err != nil {
						return err
					}
					mu.Lock()
					got[c.Rank()] = v
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d n=%d algo=%d: %v", p, n, algo, err)
				}
				for r := 0; r < p; r++ {
					checkClose(t, got[r], want, 1e-4, fmt.Sprintf("p=%d n=%d algo=%d rank=%d", p, n, algo, r))
				}
			}
		}
	}
}

func TestAllreduceMean(t *testing.T) {
	p, n := 4, 100
	ins, sum := makeInputs(p, n, 9)
	want := make([]float32, n)
	for i := range want {
		want[i] = sum[i] / float32(p)
	}
	got := make([][]float32, p)
	var mu sync.Mutex
	err := RunGroup(p, func(c *Communicator) error {
		v := append([]float32(nil), ins[c.Rank()]...)
		if err := c.AllreduceMean(v, AlgoAuto); err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = v
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		checkClose(t, got[r], want, 1e-5, "mean")
	}
}

// Property-based: allreduce(sum) equals the sequential sum for random sizes.
func TestAllreduceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		p := 1 + rng.Intn(8)
		n := 1 + rng.Intn(300)
		ins, want := makeInputs(p, n, seed)
		ok := true
		var mu sync.Mutex
		err := RunGroup(p, func(c *Communicator) error {
			v := append([]float32(nil), ins[c.Rank()]...)
			if err := c.AllreduceSum(v, AlgoAuto); err != nil {
				return err
			}
			for i := range v {
				if math.Abs(float64(v[i]-want[i])) > 1e-3 {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range groupSizes {
		n := 13
		ins, _ := makeInputs(p, n, 5)
		want := make([]float32, 0, n*p)
		for r := 0; r < p; r++ {
			want = append(want, ins[r]...)
		}
		got := make([][]float32, p)
		var mu sync.Mutex
		err := RunGroup(p, func(c *Communicator) error {
			out := make([]float32, n*p)
			if err := c.Allgather(ins[c.Rank()], out); err != nil {
				return err
			}
			mu.Lock()
			got[c.Rank()] = out
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for r := 0; r < p; r++ {
			checkClose(t, got[r], want, 0, fmt.Sprintf("allgather p=%d r=%d", p, r))
		}
	}
}

func TestAllgatherLengthMismatch(t *testing.T) {
	err := RunGroup(2, func(c *Communicator) error {
		return c.Allgather(make([]float32, 3), make([]float32, 5))
	})
	if !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("got %v, want ErrLengthMismatch", err)
	}
}

func TestAllgatherV(t *testing.T) {
	for _, p := range groupSizes {
		// Rank r contributes r+1 elements valued float32(r)+idx/10.
		want := []float32{}
		wantLens := make([]int, p)
		for r := 0; r < p; r++ {
			wantLens[r] = r + 1
			for i := 0; i <= r; i++ {
				want = append(want, float32(r)+float32(i)/10)
			}
		}
		got := make([][]float32, p)
		var mu sync.Mutex
		err := RunGroup(p, func(c *Communicator) error {
			r := c.Rank()
			in := make([]float32, r+1)
			for i := range in {
				in[i] = float32(r) + float32(i)/10
			}
			out, lens, err := c.AllgatherV(in)
			if err != nil {
				return err
			}
			for i, l := range lens {
				if l != wantLens[i] {
					return fmt.Errorf("lens[%d]=%d want %d", i, l, wantLens[i])
				}
			}
			mu.Lock()
			got[r] = out
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for r := 0; r < p; r++ {
			checkClose(t, got[r], want, 0, fmt.Sprintf("allgatherv p=%d r=%d", p, r))
		}
	}
}

func TestAllgatherVZeroLengthContribution(t *testing.T) {
	// Some ranks contribute nothing (possible for Gaussian-K on a quiet layer).
	p := 4
	err := RunGroup(p, func(c *Communicator) error {
		var in []float32
		if c.Rank()%2 == 0 {
			in = []float32{float32(c.Rank())}
		}
		out, lens, err := c.AllgatherV(in)
		if err != nil {
			return err
		}
		if len(out) != 2 {
			return fmt.Errorf("out len %d want 2", len(out))
		}
		if lens[1] != 0 || lens[3] != 0 {
			return fmt.Errorf("odd ranks should contribute 0: %v", lens)
		}
		if out[0] != 0 || out[1] != 2 {
			return fmt.Errorf("out = %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	for _, p := range groupSizes {
		for root := 0; root < p; root += max(1, p/3) {
			err := RunGroup(p, func(c *Communicator) error {
				v := make([]float32, 64)
				if c.Rank() == root {
					for i := range v {
						v[i] = float32(i) + 0.5
					}
				}
				if err := c.Broadcast(v, root); err != nil {
					return err
				}
				for i := range v {
					if v[i] != float32(i)+0.5 {
						return fmt.Errorf("rank %d: v[%d]=%v", c.Rank(), i, v[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	err := RunGroup(2, func(c *Communicator) error {
		return c.Broadcast(make([]float32, 1), 5)
	})
	if err == nil {
		t.Fatal("expected error for out-of-range root")
	}
}

func TestReduce(t *testing.T) {
	for _, p := range groupSizes {
		ins, want := makeInputs(p, 37, 77)
		for root := 0; root < p; root += max(1, p/2) {
			var rootGot []float32
			var mu sync.Mutex
			err := RunGroup(p, func(c *Communicator) error {
				v := append([]float32(nil), ins[c.Rank()]...)
				if err := c.Reduce(v, root); err != nil {
					return err
				}
				if c.Rank() == root {
					mu.Lock()
					rootGot = v
					mu.Unlock()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
			checkClose(t, rootGot, want, 1e-4, fmt.Sprintf("reduce p=%d root=%d", p, root))
		}
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range groupSizes {
		var counter sync.Map
		err := RunGroup(p, func(c *Communicator) error {
			counter.Store(c.Rank(), true)
			if err := c.Barrier(); err != nil {
				return err
			}
			// After the barrier every rank must have checked in.
			for r := 0; r < p; r++ {
				if _, ok := counter.Load(r); !ok {
					return fmt.Errorf("rank %d passed barrier before rank %d arrived", c.Rank(), r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestTrafficAccounting(t *testing.T) {
	p, n := 4, 1024
	traffic := make([]Traffic, p)
	var mu sync.Mutex
	err := RunGroup(p, func(c *Communicator) error {
		v := make([]float32, n)
		if err := c.AllreduceSum(v, AlgoRing); err != nil {
			return err
		}
		mu.Lock()
		traffic[c.Rank()] = c.Traffic()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ring allreduce sends 2(P-1)/P * n elements per rank (4 bytes each).
	wantBytes := int64(2 * (p - 1) * (n / p) * 4)
	for r, tr := range traffic {
		if tr.BytesSent != wantBytes {
			t.Errorf("rank %d sent %d bytes, want %d", r, tr.BytesSent, wantBytes)
		}
		if tr.BytesRecv != wantBytes {
			t.Errorf("rank %d recv %d bytes, want %d", r, tr.BytesRecv, wantBytes)
		}
		if tr.MsgsSent != int64(2*(p-1)) {
			t.Errorf("rank %d sent %d msgs, want %d", r, tr.MsgsSent, 2*(p-1))
		}
	}
}

func TestResetTraffic(t *testing.T) {
	f := NewInprocFabric(1)
	defer f.Shutdown()
	c := f.Communicators()[0]
	c.bytesSent.Store(10)
	c.ResetTraffic()
	if tr := c.Traffic(); tr.BytesSent != 0 {
		t.Error("ResetTraffic did not clear counters")
	}
}

func TestA2SGDTwoScalarTraffic(t *testing.T) {
	// The paper's headline: A2SGD exchanges exactly two scalars (64 bits)
	// per worker per iteration regardless of model size. Verify the
	// recursive-doubling allreduce of a 2-vector moves only log2(P) small
	// messages.
	p := 8
	var mu sync.Mutex
	sent := make([]int64, p)
	err := RunGroup(p, func(c *Communicator) error {
		v := []float32{1, 2}
		if err := c.AllreduceMean(v, AlgoRecursiveDoubling); err != nil {
			return err
		}
		mu.Lock()
		sent[c.Rank()] = c.Traffic().BytesSent
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range sent {
		// log2(8)=3 rounds × 8 bytes.
		if b != 24 {
			t.Errorf("rank %d sent %d bytes, want 24", r, b)
		}
	}
}

func TestIndexBitcastRoundTrip(t *testing.T) {
	for _, i := range []uint32{0, 1, 12345, 1 << 30, math.MaxUint32} {
		if got := Float32ToIndex(Float32FromIndex(i)); got != i {
			t.Errorf("round trip %d -> %d", i, got)
		}
	}
}

func TestShutdownUnblocks(t *testing.T) {
	f := NewInprocFabric(2)
	tp := f.Transport(0)
	done := make(chan error, 1)
	go func() {
		done <- tp.Recv(1, 0, make([]float32, 1))
	}()
	f.Shutdown()
	if err := <-done; err != ErrFabricClosed {
		t.Fatalf("got %v, want ErrFabricClosed", err)
	}
	if err := tp.Send(1, 0, nil); err != ErrFabricClosed {
		t.Fatalf("send after shutdown: got %v", err)
	}
}

func TestInvalidRankErrors(t *testing.T) {
	f := NewInprocFabric(2)
	defer f.Shutdown()
	tp := f.Transport(0)
	if err := tp.Send(7, 0, nil); err == nil {
		t.Error("send to invalid rank should error")
	}
	if err := tp.Recv(-1, 0, nil); err == nil {
		t.Error("recv from invalid rank should error")
	}
}

func TestRunGroupPropagatesError(t *testing.T) {
	sentinel := fmt.Errorf("boom")
	err := RunGroup(3, func(c *Communicator) error {
		if c.Rank() == 1 {
			return sentinel
		}
		// Other ranks block in a collective; Shutdown must release them.
		return c.Barrier()
	})
	if err == nil {
		t.Fatal("expected an error")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
