package comm

import (
	"fmt"
	"math"
	"testing"
)

// hierVec builds rank r's deterministic test vector.
func hierVec(rank, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(math.Sin(float64(rank*n+i))) * float32(rank+1)
	}
	return v
}

// hierMean computes the exact across-rank mean in float64.
func hierMean(p, n int) []float32 {
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		var s float64
		for r := 0; r < p; r++ {
			s += float64(hierVec(r, n)[i])
		}
		out[i] = float32(s / float64(p))
	}
	return out
}

func TestSplitGroups(t *testing.T) {
	const p = 6
	err := RunGroup(p, func(c *Communicator) error {
		// Even/odd split, keys reversing the rank order inside each group.
		color := c.Rank() % 2
		g, err := c.Split(color, p-c.Rank())
		if err != nil {
			return err
		}
		if g.Size() != p/2 {
			t.Errorf("rank %d: group size %d, want %d", c.Rank(), g.Size(), p/2)
		}
		// Keys reverse the order: global rank 4 (key 2) is group rank 0 of
		// the even group, rank 0 (key 6) is its last.
		wantRank := (p - 1 - c.Rank()) / 2
		if g.Rank() != wantRank {
			t.Errorf("rank %d: group rank %d, want %d", c.Rank(), g.Rank(), wantRank)
		}
		// The group is a real communicator: sum group members' global ranks.
		v := []float32{float32(c.Rank())}
		if err := g.AllreduceSum(v, AlgoAuto); err != nil {
			return err
		}
		want := float32(0 + 2 + 4)
		if color == 1 {
			want = 1 + 3 + 5
		}
		if v[0] != want {
			t.Errorf("rank %d: group sum %v, want %v", c.Rank(), v[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	err := RunGroup(4, func(c *Communicator) error {
		color := ColorUndefined
		if c.Rank()%2 == 0 {
			color = 0
		}
		g, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if color == ColorUndefined && g != nil {
			t.Errorf("rank %d: expected nil group", c.Rank())
		}
		if color == 0 && (g == nil || g.Size() != 2) {
			t.Errorf("rank %d: bad leader group %+v", c.Rank(), g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalAllreduceMeanMatchesFlat(t *testing.T) {
	const n = 1000
	for _, tc := range []struct{ p, rpn int }{
		{4, 2}, {8, 2}, {8, 4}, {6, 4}, {7, 3}, {5, 5}, {9, 2},
	} {
		want := hierMean(tc.p, n)
		err := RunGroup(tc.p, func(c *Communicator) error {
			if err := c.SetTopology(tc.rpn); err != nil {
				return err
			}
			v := hierVec(c.Rank(), n)
			if err := c.AllreduceMean(v, AlgoAuto); err != nil {
				return err
			}
			for i := range v {
				if d := math.Abs(float64(v[i] - want[i])); d > 1e-5 {
					t.Errorf("p=%d rpn=%d rank %d: mean[%d]=%v want %v (|Δ|=%g)",
						tc.p, tc.rpn, c.Rank(), i, v[i], want[i], d)
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d rpn=%d: %v", tc.p, tc.rpn, err)
		}
	}
}

func TestHierarchicalAllreduceDeterministic(t *testing.T) {
	const p, rpn, n = 6, 2, 512
	run := func() [][]float32 {
		out := make([][]float32, p)
		err := RunGroup(p, func(c *Communicator) error {
			if err := c.SetTopology(rpn); err != nil {
				return err
			}
			v := hierVec(c.Rank(), n)
			if err := c.AllreduceMean(v, AlgoRing); err != nil {
				return err
			}
			out[c.Rank()] = v
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for r := 0; r < p; r++ {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d elem %d: %v != %v (hierarchical allreduce not deterministic)",
					r, i, a[r][i], b[r][i])
			}
		}
	}
	// All ranks must also agree bitwise with each other.
	for r := 1; r < p; r++ {
		for i := range a[0] {
			if a[r][i] != a[0][i] {
				t.Fatalf("rank %d disagrees with rank 0 at elem %d", r, i)
			}
		}
	}
}

func TestHierarchicalAllgatherMatchesFlat(t *testing.T) {
	const blk = 37
	for _, tc := range []struct{ p, rpn int }{
		{4, 2}, {8, 4}, {6, 4}, {7, 3},
	} {
		err := RunGroup(tc.p, func(c *Communicator) error {
			if err := c.SetTopology(tc.rpn); err != nil {
				return err
			}
			in := hierVec(c.Rank(), blk)
			out := make([]float32, blk*tc.p)
			if err := c.Allgather(in, out); err != nil {
				return err
			}
			for r := 0; r < tc.p; r++ {
				want := hierVec(r, blk)
				for i := 0; i < blk; i++ {
					if out[r*blk+i] != want[i] {
						t.Errorf("p=%d rpn=%d rank %d: block %d elem %d = %v, want %v",
							tc.p, tc.rpn, c.Rank(), r, i, out[r*blk+i], want[i])
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d rpn=%d: %v", tc.p, tc.rpn, err)
		}
	}
}

func TestHierarchicalAllgatherVMatchesFlat(t *testing.T) {
	for _, tc := range []struct{ p, rpn int }{
		{4, 2}, {8, 4}, {6, 4}, {7, 3},
	} {
		err := RunGroup(tc.p, func(c *Communicator) error {
			if err := c.SetTopology(tc.rpn); err != nil {
				return err
			}
			// Rank r contributes r+1 elements (variable lengths).
			in := hierVec(c.Rank(), c.Rank()+1)
			out, lens, err := c.AllgatherV(in)
			if err != nil {
				return err
			}
			off := 0
			for r := 0; r < tc.p; r++ {
				if lens[r] != r+1 {
					t.Errorf("p=%d rpn=%d rank %d: lens[%d]=%d, want %d",
						tc.p, tc.rpn, c.Rank(), r, lens[r], r+1)
					return nil
				}
				want := hierVec(r, r+1)
				for i := range want {
					if out[off+i] != want[i] {
						t.Errorf("p=%d rpn=%d rank %d: block %d elem %d = %v, want %v",
							tc.p, tc.rpn, c.Rank(), r, i, out[off+i], want[i])
						return nil
					}
				}
				off += lens[r]
			}
			if off != len(out) {
				t.Errorf("p=%d rpn=%d: total %d != len(out) %d", tc.p, tc.rpn, off, len(out))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d rpn=%d: %v", tc.p, tc.rpn, err)
		}
	}
}

func TestHierarchicalBroadcast(t *testing.T) {
	const n = 64
	for _, root := range []int{0, 1, 2, 5} {
		err := RunGroup(6, func(c *Communicator) error {
			if err := c.SetTopology(2); err != nil {
				return err
			}
			v := make([]float32, n)
			if c.Rank() == root {
				copy(v, hierVec(root, n))
			}
			if err := c.Broadcast(v, root); err != nil {
				return err
			}
			want := hierVec(root, n)
			for i := range v {
				if v[i] != want[i] {
					t.Errorf("root=%d rank %d: elem %d = %v, want %v", root, c.Rank(), i, v[i], want[i])
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("root=%d: %v", root, err)
		}
	}
}

func TestHierarchicalNonblockingPipeline(t *testing.T) {
	// The overlapped step loop posts collectives through Post; the
	// hierarchical schedules must compose with the progress worker.
	const p, rpn, n = 6, 3, 256
	want0 := hierMean(p, n)
	err := RunGroup(p, func(c *Communicator) error {
		if err := c.SetTopology(rpn); err != nil {
			return err
		}
		a := hierVec(c.Rank(), n)
		b := hierVec(c.Rank()+p, n)
		r1 := c.Post(&postedOp{v: a, mean: true})
		out := make([]float32, n/4*p)
		r2 := c.Post(&postedOp{v: b[:n/4], out: out})
		if err := WaitAll([]Request{r1, r2}); err != nil {
			return err
		}
		for i := range a {
			if d := math.Abs(float64(a[i] - want0[i])); d > 1e-5 {
				t.Errorf("rank %d: mean[%d]=%v want %v", c.Rank(), i, a[i], want0[i])
				break
			}
		}
		for r := 0; r < p; r++ {
			want := hierVec(r+p, n)
			for i := 0; i < n/4; i++ {
				if out[r*(n/4)+i] != want[i] {
					t.Errorf("rank %d: gathered block %d differs", c.Rank(), r)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetTopologyClampAndClear(t *testing.T) {
	err := RunGroup(4, func(c *Communicator) error {
		if err := c.SetTopology(16); err != nil { // clamped to one node
			return err
		}
		if got := c.Topology(); got != 4 {
			t.Errorf("topology after clamp: %d, want 4", got)
		}
		v := []float32{float32(c.Rank())}
		if err := c.AllreduceMean(v, AlgoAuto); err != nil {
			return err
		}
		if v[0] != 1.5 {
			t.Errorf("single-node mean %v, want 1.5", v[0])
		}
		if err := c.SetTopology(0); err != nil {
			return err
		}
		if got := c.Topology(); got != 0 {
			t.Errorf("topology after clear: %d, want 0", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherScatter pins the rooted gather under hierAllgather: every rank's
// block lands at offset rank·blk of the root's buffer, for first and last
// roots. (Its Scatter round-trip half went with Scatter.)
func TestGatherScatter(t *testing.T) {
	for _, p := range groupSizes {
		for root := 0; root < p; root += max(1, p-1) {
			blk := 5
			err := RunGroup(p, func(c *Communicator) error {
				r := c.Rank()
				in := make([]float32, blk)
				for i := range in {
					in[i] = float32(r*100 + i)
				}
				var out []float32
				if r == root {
					out = make([]float32, blk*p)
				}
				if err := c.Gather(in, out, root); err != nil {
					return err
				}
				if r == root {
					for src := 0; src < p; src++ {
						for i := 0; i < blk; i++ {
							if out[src*blk+i] != float32(src*100+i) {
								return fmt.Errorf("gather[%d][%d] = %v", src, i, out[src*blk+i])
							}
						}
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

func TestGatherScatterValidation(t *testing.T) {
	err := RunGroup(2, func(c *Communicator) error {
		if c.Rank() == 0 {
			if e := c.Gather(make([]float32, 2), make([]float32, 3), 0); e != ErrLengthMismatch {
				return fmt.Errorf("gather: %v", e)
			}
			if e := c.Gather(nil, nil, 9); e != ErrLengthMismatch {
				return fmt.Errorf("bad root: %v", e)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
