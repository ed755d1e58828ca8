package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/tensor"
)

// The sync workloads run the synchronization path alone, at gradient scale:
// per rank a seeded N(0, 0.05²) gradient cut into equal buckets bound as
// views, one algorithm instance per bucket, and per step
//
//	(untimed) copy the pristine gradient back, barrier
//	(timed)   EncodeBucketView ×buckets → comm.Post each exchange → WaitAll
//
// over two tag-space contexts on a loopback TCP mesh. Closed loop: two ranks
// in lock step, each starting its next step when the previous one is done.

// exchangeOp is the pooled comm.Op of one bucket's exchange.
type exchangeOp struct {
	bk *compress.Bucketed
	b  int
	p  compress.Payload
	v  *tensor.VecView
}

func (o *exchangeOp) RunOp(c *comm.Communicator) error {
	return o.bk.ExchangeBucketView(o.b, o.p, o.v, c)
}

// syncRank is one rank's state. Its slices are written by the rank goroutine
// while a command runs and read by the driver between commands.
type syncRank struct {
	w        *workload
	rank     int
	cm       *comm.Communicator
	pr       *probe
	pristine []float32
	g        []float32
	views    []tensor.VecView
	bk       *compress.Bucketed
	ops      []exchangeOp
	reqs     []comm.Request
	nstep    int32
	stepMs   []float64
	stepWire []int64
	stepMsgs []int64
}

func bucketBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := range b {
		b[i] = i * n / k
	}
	return b
}

func (r *syncRank) init(seed uint64) error {
	w := r.w
	r.pristine = make([]float32, w.elems)
	tensor.NewRNG(seed*1000+uint64(r.rank)+1).NormVec(r.pristine, 0, gradStddev)
	r.g = make([]float32, w.elems)
	bounds := bucketBounds(w.elems, w.buckets)
	spec := w.spec
	var buildErr error
	r.bk = compress.NewBucketed(bounds, func(b, n int) compress.Algorithm {
		s := spec
		if r.pr.rec != nil {
			s = fmt.Sprintf("traced(%s, bucket=%d)", spec, b)
		}
		o := compress.DefaultOptions(n)
		o.Seed = compress.BucketSeed(seed, r.rank, b)
		a, err := compress.ParseBuild(s, o)
		if err != nil {
			buildErr = err
			return compress.NewDense(o)
		}
		return a
	})
	if buildErr != nil {
		return buildErr
	}
	r.views = make([]tensor.VecView, w.buckets)
	r.ops = make([]exchangeOp, w.buckets)
	for b := range r.ops {
		r.views[b].Reset1(r.g[bounds[b]:bounds[b+1]])
		r.ops[b] = exchangeOp{bk: r.bk, b: b, v: &r.views[b]}
	}
	r.reqs = make([]comm.Request, 0, w.buckets)
	return r.cm.SetConcurrency(2)
}

// step runs one synchronization step and returns its timed window.
func (r *syncRank) step() (time.Duration, error) {
	copy(r.g, r.pristine)
	if err := r.cm.Barrier(); err != nil {
		return 0, err
	}
	rec, rt := r.pr.rec, r.pr.rt
	if rec != nil {
		rt.step.Store(r.nstep)
	}
	bytes0, msgs0 := r.pr.bytes.Load(), r.pr.msgs.Load()
	var s0 int64
	if rec != nil {
		s0 = rec.now()
	}
	t0 := time.Now()
	reqs := r.reqs[:0]
	for b := range r.ops {
		r.ops[b].p = r.bk.EncodeBucketView(b, &r.views[b])
		if rec != nil {
			p0 := rec.now()
			reqs = append(reqs, r.cm.Post(&r.ops[b]))
			rt.add(spPost, laneMain, b, p0, rec.now())
		} else {
			reqs = append(reqs, r.cm.Post(&r.ops[b]))
		}
	}
	var w0 int64
	if rec != nil {
		w0 = rec.now()
	}
	err := comm.WaitAll(reqs)
	d := time.Since(t0)
	if rec != nil {
		end := rec.now()
		rt.add(spWait, laneMain, -1, w0, end)
		rt.add(spStep, laneMain, -1, s0, end)
	}
	r.reqs = reqs
	r.nstep++
	r.stepWire = append(r.stepWire, r.pr.bytes.Load()-bytes0)
	r.stepMsgs = append(r.stepMsgs, r.pr.msgs.Load()-msgs0)
	return d, err
}

// syncGroup drives the ranks: run(n) makes every rank take n steps and
// returns when all have.
type syncGroup struct {
	ranks []*syncRank
	cmd   []chan int
	done  chan error
	exit  chan error
}

func startSync(w *workload, seed uint64, tr *tracing, maxSteps int) (*syncGroup, error) {
	g := &syncGroup{
		ranks: make([]*syncRank, workers),
		cmd:   make([]chan int, workers),
		done:  make(chan error, workers),
		exit:  make(chan error, 1),
	}
	epoch := time.Now()
	probes := make([]*probe, workers)
	for r := range g.ranks {
		probes[r] = newProbe(epoch, 0, tr, r)
		g.ranks[r] = &syncRank{
			w: w, rank: r, pr: probes[r],
			stepMs:   make([]float64, 0, maxSteps),
			stepWire: make([]int64, 0, maxSteps),
			stepMsgs: make([]int64, 0, maxSteps),
		}
		g.cmd[r] = make(chan int)
	}
	go func() {
		g.exit <- probedRunner(w.tcp, probes)(workers, func(cm *comm.Communicator) error {
			r := g.ranks[cm.Rank()]
			r.cm = cm
			err := r.init(seed)
			g.done <- err
			if err != nil {
				return err
			}
			for n := range g.cmd[r.rank] {
				var err error
				for i := 0; i < n && err == nil; i++ {
					var d time.Duration
					d, err = r.step()
					r.stepMs = append(r.stepMs, float64(d)/1e6)
				}
				g.done <- err
				if err != nil {
					return err
				}
			}
			return nil
		})
	}()
	if err := g.wait(); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

func (g *syncGroup) wait() error {
	var first error
	for range g.ranks {
		if err := <-g.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (g *syncGroup) run(n int) error {
	for _, c := range g.cmd {
		c <- n
	}
	return g.wait()
}

// stop ends the rank goroutines and waits until the group has joined.
func (g *syncGroup) stop() error {
	for _, c := range g.cmd {
		close(c)
	}
	return <-g.exit
}

// checkSync compares every rank's synchronized gradient of the step just
// taken with a naive single-threaded oracle computed from the pristine
// gradients, to 1e-5 relative to the gradient scale. Dense results must also
// be bitwise equal across ranks; A2SGD replicas differ by design (each keeps
// its own residual), so there the oracle is the whole check.
func checkSync(w *workload, ranks []*syncRank) error {
	bounds := bucketBounds(w.elems, w.buckets)
	near := func(got float32, want float64) bool {
		return math.Abs(float64(got)-want) <= 1e-5*math.Max(math.Abs(want), gradStddev)
	}
	switch w.spec {
	case "dense":
		for i := 0; i < w.elems; i++ {
			var sum float64
			for _, r := range ranks {
				sum += float64(r.pristine[i])
			}
			want := sum / float64(len(ranks))
			for _, r := range ranks {
				if !near(r.g[i], want) {
					return fmt.Errorf("dense: rank %d element %d is %g, oracle %g", r.rank, i, r.g[i], want)
				}
				if math.Float32bits(r.g[i]) != math.Float32bits(ranks[0].g[i]) {
					return fmt.Errorf("dense: rank %d element %d differs bitwise from rank 0", r.rank, i)
				}
			}
		}
	case "a2sgd":
		for b := 0; b < w.buckets; b++ {
			lo, hi := bounds[b], bounds[b+1]
			muPos := make([]float64, len(ranks))
			muNeg := make([]float64, len(ranks))
			var gPos, gNeg float64
			for ri, r := range ranks {
				var sp, sn float64
				var np, nn int
				for _, x := range r.pristine[lo:hi] {
					if x >= 0 {
						sp += float64(x)
						np++
					} else {
						sn -= float64(x)
						nn++
					}
				}
				if np > 0 {
					muPos[ri] = sp / float64(np)
				}
				if nn > 0 {
					muNeg[ri] = sn / float64(nn)
				}
				gPos += muPos[ri] / float64(len(ranks))
				gNeg += muNeg[ri] / float64(len(ranks))
			}
			for ri, r := range ranks {
				for i := lo; i < hi; i++ {
					x := float64(r.pristine[i])
					want := x - muPos[ri] + gPos // residual + global mean
					if x < 0 {
						want = x + muNeg[ri] - gNeg
					}
					if !near(r.g[i], want) {
						return fmt.Errorf("a2sgd: rank %d bucket %d element %d is %g, oracle %g", r.rank, b, i, r.g[i], want)
					}
				}
			}
		}
	default:
		return fmt.Errorf("no oracle for spec %q", w.spec)
	}
	return nil
}

// runSync sets the workload up, takes the checked warm-up steps, and then
// times chunks of steps until budget has passed or maxSteps are done. A zero
// budget makes it a set-up only.
func runSync(w *workload, seed uint64, budget time.Duration, maxSteps int, tr *tracing) (*pass, error) {
	p := &pass{w: w}
	if rec := tr.recorder(); rec != nil {
		tracer = rec
		defer func() { tracer = nil }()
	}
	clock := newCPUClock()
	defer clock.close()
	steal0, total0 := clock.read()
	begin := time.Now()
	g, err := startSync(w, seed, tr, maxSteps+warmup)
	if err != nil {
		return nil, err
	}
	var checking time.Duration
	for i := 0; i < warmup; i++ {
		p.attempted++
		if err := g.run(1); err != nil {
			g.stop()
			return nil, err
		}
		c0 := time.Now()
		if err := checkSync(w, g.ranks); err != nil {
			p.fail("warm-up step %d: %v", i, err)
		}
		checking += time.Since(c0)
	}
	p.setups = append(p.setups, (time.Since(begin) - checking).Seconds())

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	timed := time.Now()
	steps := 0
	for steps+w.chunk <= maxSteps && time.Since(timed) < budget {
		if err := g.run(w.chunk); err != nil {
			g.stop()
			return nil, err
		}
		steps += w.chunk
		p.attempted += w.chunk
		// The untimed gradient restore is not part of a step: a chunk's
		// steps/s is its steps over the sum of their timed windows.
		chunk := g.ranks[0].stepMs[warmup+steps-w.chunk:]
		p.rates = append(p.rates, 1e3/mean(chunk))
	}
	steal1, total1 := clock.read()
	p.stolen.add(steal0, total0, steal1, total1)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if err := g.stop(); err != nil {
		return nil, err
	}
	if steps > 0 {
		p.allocsPerStep = float64(ms1.Mallocs-ms0.Mallocs) / float64(steps)
	}
	p.stepMs = g.ranks[0].stepMs[warmup:]
	p.stepsToTarget = w.targetSteps

	// Bytes and messages one rank sends in one step: the median over steps is
	// an exact count, then averaged over ranks.
	for _, r := range g.ranks {
		wire := make([]float64, len(r.stepWire))
		msgs := make([]float64, len(r.stepMsgs))
		for i := range wire {
			wire[i], msgs[i] = float64(r.stepWire[i]), float64(r.stepMsgs[i])
		}
		p.wire += median(wire) / workers
		p.msgs += median(msgs) / workers
		for i, b := range wire {
			if b != w.wireBytes {
				p.fail("rank %d step %d sent %g B, pinned %g B", r.rank, i, b, w.wireBytes)
				break
			}
		}
	}
	p.payloadBytes = float64(g.ranks[0].bk.PayloadBytes(w.elems))
	return p, nil
}
