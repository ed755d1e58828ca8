package main

import (
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/data"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/optim"
	"a2sgd/internal/plan"
	"a2sgd/internal/tensor"
)

// Direct timed calls into single layers' public functions, made in the
// traced pass of the workload each is attached to. They keep one layer's
// cost visible when no workload isolates it, and continue the rows of
// BENCH_hotpath.json at GOMAXPROCS=2.

const microElems = 1 << 20 // 4 MiB of float32

// timeMedian calls f reps times after two warm-up calls and returns the
// median duration in seconds.
func timeMedian(reps int, f func()) float64 {
	f()
	f()
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = time.Since(t0).Seconds()
	}
	return median(d)
}

func microGradient(seed uint64) []float32 {
	g := make([]float32, microElems)
	tensor.NewRNG(seed).NormVec(g, 0, gradStddev)
	return g
}

func signedMeansNsPerElem(seed uint64) float64 {
	var v tensor.VecView
	v.Reset1(microGradient(seed))
	sec := timeMedian(15, func() { v.ParSignedMeans() })
	return sec * 1e9 / microElems
}

func matmulGflops(seed uint64) float64 {
	const n = 256
	rng := tensor.NewRNG(seed)
	a, b, c := tensor.NewMat(n, n), tensor.NewMat(n, n), tensor.NewMat(n, n)
	rng.NormVec(a.Data, 0, 1)
	rng.NormVec(b.Data, 0, 1)
	sec := timeMedian(15, func() { tensor.MatMul(c, a, b) })
	return 2 * n * n * n / sec / 1e9
}

// encodeNsPerElem times EncodeView of one warm instance on a 1 Mi-element
// view, as BENCH_hotpath.json's encode rows do.
func encodeNsPerElem(spec string, seed uint64) (float64, error) {
	o := compress.DefaultOptions(microElems)
	o.Seed = seed
	a, err := compress.ParseBuild(spec, o)
	if err != nil {
		return 0, err
	}
	g := microGradient(seed)
	var v tensor.VecView
	v.Reset1(g)
	sec := timeMedian(7, func() { a.EncodeView(&v) })
	return sec * 1e9 / microElems, nil
}

// decoder is the expansion half of the quantizers, which the exchange runs
// once per peer stream.
type decoder interface {
	EncodeView(*tensor.VecView) compress.Payload
	Decode(data, dst []float32)
}

func decodeNsPerElem(d decoder, seed uint64) float64 {
	var v tensor.VecView
	v.Reset1(microGradient(seed))
	stream := append([]float32(nil), d.EncodeView(&v).Data...)
	dst := make([]float32, microElems)
	sec := timeMedian(7, func() { d.Decode(stream, dst) })
	return sec * 1e9 / microElems
}

// allreduceSec times AllreduceMean of n floats on two ranks, rank 0's view.
func allreduceSec(tcp bool, n, reps int, algo comm.AllreduceAlgorithm) (float64, error) {
	var sec float64
	err := runGroup(tcp, workers, nil, func(c *comm.Communicator) error {
		v := make([]float32, n)
		var fail error
		s := timeMedian(reps, func() {
			if err := c.AllreduceMean(v, algo); err != nil && fail == nil {
				fail = err
			}
		})
		if c.Rank() == 0 {
			sec = s
		}
		return fail
	})
	return sec, err
}

// pingPongSec times rank 0 sending n floats to rank 1 over loopback TCP and
// getting a one-float reply.
func pingPongSec(n, reps int) (float64, error) {
	mesh, stop, err := tcpnet.NewLocalMesh(2)
	if err != nil {
		return 0, err
	}
	defer stop()
	const tag = 1
	total := reps + 2 // timeMedian's warm-up calls
	echoed := make(chan error, 1)
	go func() {
		buf, ack := make([]float32, n), []float32{1}
		for i := 0; i < total; i++ {
			if err := mesh[1].Recv(0, tag, buf); err != nil {
				echoed <- err
				return
			}
			if err := mesh[1].Send(0, tag, ack); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	buf, ack := make([]float32, n), make([]float32, 1)
	var fail error
	sec := timeMedian(reps, func() {
		if fail != nil {
			return
		}
		if fail = mesh[0].Send(1, tag, buf); fail == nil {
			fail = mesh[0].Recv(1, tag, ack)
		}
	})
	if fail != nil {
		stop() // unblock the echo goroutine
		<-echoed
		return 0, fail
	}
	return sec, <-echoed
}

type noop struct{}

func (noop) RunOp(*comm.Communicator) error { return nil }

// postUs times comm.Post of an empty operation on an idle two-context TCP
// communicator: the fixed cost of handing one exchange to a progress worker.
func postUs() (float64, error) {
	var us float64
	err := runGroup(true, workers, nil, func(c *comm.Communicator) error {
		if err := c.SetConcurrency(2); err != nil {
			return err
		}
		op := &noop{}
		var fail error
		var post []float64
		for i := 0; i < 2000; i++ {
			t0 := time.Now()
			req := c.Post(op)
			post = append(post, float64(time.Since(t0))/1e3)
			if err := req.Wait(); err != nil {
				fail = err
			}
		}
		if c.Rank() == 0 {
			us = median(post[100:])
		}
		return fail
	})
	return us, err
}

// modelStepMs times Model.Step on one batch, one goroutine: the compute a
// training step cannot go below.
func modelStepMs(family string, seed uint64) (float64, error) {
	m, err := models.New(models.Config{Family: family, Seed: seed, Reduced: true})
	if err != nil {
		return 0, err
	}
	img, txt, err := data.ForFamily(family, seed)
	if err != nil {
		return 0, err
	}
	rng := tensor.NewRNG(seed + 1)
	var batch models.Batch
	if img != nil {
		batch = img.Sample(rng, batchSize)
	} else {
		batch = txt.Sample(rng, batchSize, 12)
	}
	sec := timeMedian(25, func() {
		m.ZeroGrads()
		m.Step(batch)
	})
	return sec * 1e3, nil
}

func optimUpdateNsPerParam(seed uint64) (float64, error) {
	m, err := models.New(models.Config{Family: "vgg16", Seed: seed, Reduced: true})
	if err != nil {
		return 0, err
	}
	opt := optim.NewSGD(0.9, 0)
	sec := timeMedian(25, func() { opt.Step(m.Params(), 0.01) })
	return sec * 1e9 / float64(m.NumParams()), nil
}

func planBuildMs(seed uint64) (float64, error) {
	m, err := models.New(models.Config{Family: "vgg16", Seed: seed, Reduced: true})
	if err != nil {
		return 0, err
	}
	var fail error
	sec := timeMedian(5, func() {
		if _, err := plan.Build(m.ParamSegments(), plan.Options{Workers: workers, Pricer: netsim.TwoTierTCP10G(workers)}); err != nil {
			fail = err
		}
	})
	return sec * 1e3, fail
}
