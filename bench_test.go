package a2sgd_test

// Benchmarks regenerating each of the paper's tables and figures, plus the
// ablation benches (PAPER.md, the ablations under Algorithm 1). Run all of
// them with
//
//	go test -bench=. -benchmem
//
// The full paper-scale sweeps live behind cmd/a2sgdbench; these benches use
// sizes that finish in seconds while preserving every ordering the paper
// reports.

import (
	"io"
	"sync"
	"testing"

	"a2sgd"
	"a2sgd/internal/bench"
	"a2sgd/internal/comm"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/core"
	"a2sgd/internal/netsim"
	"a2sgd/internal/stats"
	"a2sgd/internal/tensor"
)

func randGrad(n int) []float32 {
	g := make([]float32, n)
	tensor.NewRNG(uint64(n)+7).NormVec(g, 0, 0.05)
	return g
}

// ---- Figure 1: gradient-distribution capture ----

func BenchmarkFigure1Histogram(b *testing.B) {
	g := randGrad(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := stats.NewHistogram(-0.25, 0.25, 101)
		h.AddSlice(g)
	}
}

func BenchmarkFigure1TrainingCapture(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure1(io.Discard, 1, 5, false); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 2: compression compute time per algorithm ----

func benchEncode(b *testing.B, name string, n int) {
	alg, err := a2sgd.NewAlgorithm(name, a2sgd.DefaultOptions(n))
	if err != nil {
		b.Fatal(err)
	}
	g := randGrad(n)
	alg.Encode(g) // warm-up allocations
	b.SetBytes(int64(4 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Encode(g)
	}
}

func BenchmarkFigure2TopK1M(b *testing.B)      { benchEncode(b, "topk", 1_000_000) }
func BenchmarkFigure2QSGD1M(b *testing.B)      { benchEncode(b, "qsgd", 1_000_000) }
func BenchmarkFigure2GaussianK1M(b *testing.B) { benchEncode(b, "gaussiank", 1_000_000) }
func BenchmarkFigure2A2SGD1M(b *testing.B)     { benchEncode(b, "a2sgd", 1_000_000) }
func BenchmarkFigure2TopK10M(b *testing.B)     { benchEncode(b, "topk", 10_000_000) }
func BenchmarkFigure2QSGD10M(b *testing.B)     { benchEncode(b, "qsgd", 10_000_000) }
func BenchmarkFigure2A2SGD10M(b *testing.B)    { benchEncode(b, "a2sgd", 10_000_000) }

// ---- Hot path: steady-state ns/op and allocs/op on vgg16-scale buckets ----
//
// These benchmarks pin the zero-allocation contract (ARCHITECTURE.md "Memory
// discipline & hot path"): after the warm-up call grows instance scratch,
// encode/decode/sync run without touching the allocator. CI smokes them with
// `go test -bench=HotPath -benchtime=1x`; `a2sgdbench -experiment hotpath
// -json BENCH_hotpath.json` records the trajectory per PR.

// hotN is the vgg16-scale bucket: 1 M float32 elements = 4 MiB.
const hotN = 1 << 20

func benchHotEncode(b *testing.B, name string) {
	alg, err := a2sgd.NewAlgorithm(name, a2sgd.DefaultOptions(hotN))
	if err != nil {
		b.Fatal(err)
	}
	g := randGrad(hotN)
	alg.Encode(g) // warm-up: grows instance scratch once
	b.SetBytes(4 * hotN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Encode(g)
	}
}

func BenchmarkHotPathEncodeTopK(b *testing.B)      { benchHotEncode(b, "topk") }
func BenchmarkHotPathEncodeGaussianK(b *testing.B) { benchHotEncode(b, "gaussiank") }
func BenchmarkHotPathEncodeQSGD(b *testing.B)      { benchHotEncode(b, "qsgd") }
func BenchmarkHotPathEncodeA2SGD(b *testing.B)     { benchHotEncode(b, "a2sgd") }

func BenchmarkHotPathDecodeQSGD(b *testing.B) {
	o := a2sgd.DefaultOptions(hotN)
	q := compress.NewQSGD(o)
	g := randGrad(hotN)
	p := q.Encode(g)
	stream := append([]float32(nil), p.Data...) // retained copy (payload contract)
	dst := make([]float32, hotN)
	q.Decode(stream, dst)
	b.SetBytes(4 * hotN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Decode(stream, dst)
	}
}

// BenchmarkHotPathInprocAllreduce is the warmed collective: 4 ranks in
// lockstep on a persistent fabric, ring algorithm (the bandwidth-bound case).
func BenchmarkHotPathInprocAllreduce(b *testing.B) {
	const workers = 4
	f := comm.NewInprocFabric(workers)
	defer f.Shutdown()
	cs := f.Communicators()
	vs := make([][]float32, workers)
	for r := range vs {
		vs[r] = randGrad(hotN)
	}
	run := func(iters int) {
		var wg sync.WaitGroup
		for r := 0; r < workers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := cs[r].AllreduceMean(vs[r], comm.AlgoRing); err != nil {
						b.Error(err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
	run(1) // warm-up: grows communicator scratch
	b.SetBytes(4 * hotN)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// benchHotTCP streams b.N framed 4 MiB buckets from rank 0 to rank 1 over
// the loopback mesh — the transport-level cost of one bucket's wire hop.
func BenchmarkHotPathTCPSendRecv4MiB(b *testing.B) {
	ts, shutdown, err := tcpnet.NewLocalMesh(2)
	if err != nil {
		b.Skip(err)
	}
	defer shutdown()
	src := randGrad(hotN)
	dst := make([]float32, hotN)
	run := func(iters int) error {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < iters; i++ {
				if err := ts[1].Recv(0, 7, dst); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < iters; i++ {
			if err := ts[0].Send(1, 7, src); err != nil {
				return err
			}
		}
		return <-done
	}
	if err := run(1); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4 * hotN)
	b.ReportAllocs()
	b.ResetTimer()
	if err := run(b.N); err != nil {
		b.Fatal(err)
	}
}

// ---- Figure 3 (and 6–8): convergence step per algorithm ----

func benchTrainStep(b *testing.B, algo string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := a2sgd.Train(a2sgd.TrainConfig{
			Family: "fnn3", Spec: algo, Workers: 4,
			Epochs: 1, StepsPerEpoch: 4, BatchPerWorker: 8, Momentum: 0.9,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3Dense(b *testing.B)     { benchTrainStep(b, "dense") }
func BenchmarkFigure3A2SGD(b *testing.B)     { benchTrainStep(b, "a2sgd") }
func BenchmarkFigure3TopK(b *testing.B)      { benchTrainStep(b, "topk") }
func BenchmarkFigure3GaussianK(b *testing.B) { benchTrainStep(b, "gaussiank") }
func BenchmarkFigure3QSGD(b *testing.B)      { benchTrainStep(b, "qsgd") }

// ---- Figure 4: one synchronization round at paper-like payloads ----

func benchSync(b *testing.B, algo string, n, workers int) {
	grads := make([][]float32, workers)
	for r := range grads {
		grads[r] = randGrad(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		f := comm.NewInprocFabric(workers)
		cs := f.Communicators()
		for r := 0; r < workers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				o := a2sgd.DefaultOptions(n)
				o.Seed = uint64(r + 1)
				alg, err := a2sgd.NewAlgorithm(algo, o)
				if err != nil {
					b.Error(err)
					return
				}
				g := append([]float32(nil), grads[r]...)
				if _, err := compress.Sync(alg, g, cs[r]); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
		f.Shutdown()
	}
}

func BenchmarkFigure4SyncDense256K(b *testing.B) { benchSync(b, "dense", 256_000, 4) }
func BenchmarkFigure4SyncA2SGD256K(b *testing.B) { benchSync(b, "a2sgd", 256_000, 4) }
func BenchmarkFigure4SyncTopK256K(b *testing.B)  { benchSync(b, "topk", 256_000, 4) }
func BenchmarkFigure4SyncQSGD256K(b *testing.B)  { benchSync(b, "qsgd", 256_000, 4) }

// ---- Figure 5 / Table 2: the full iteration-pricing model ----

func BenchmarkFigure5IterModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := bench.NewIterModel(netsim.IB100(), 1000, nil)
		if err != nil {
			b.Fatal(err)
		}
		bench.Figure4(io.Discard, m, nil)
		bench.Figure5(io.Discard, m, nil)
	}
}

func BenchmarkTable2(b *testing.B) {
	m, err := bench.NewIterModel(netsim.IB100(), 1000, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard, m)
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (PAPER.md, Algorithm 1) ----

// Allreduce vs Allgather exchange for a sparse payload (§4.4 of the paper).
func BenchmarkAblationExchangeAllgather(b *testing.B) {
	n := 100_000
	payload := make([]float32, 2*100) // k=100 pairs
	err := comm.RunGroup(4, func(c *comm.Communicator) error {
		for i := 0; i < b.N; i++ {
			if _, _, err := c.AllgatherV(payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = n
}

func BenchmarkAblationExchangeAllreduce(b *testing.B) {
	// The dense-allreduce alternative for the same logical exchange: the
	// full n-vector must travel.
	n := 100_000
	err := comm.RunGroup(4, func(c *comm.Communicator) error {
		v := make([]float32, n)
		for i := 0; i < b.N; i++ {
			if err := c.AllreduceSum(v, comm.AlgoRing); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// Error feedback on vs off for A2SGD (variance-retention cost).
func BenchmarkAblationA2SGDWithEF(b *testing.B) {
	a := core.New(1_000_000)
	g := randGrad(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Encode(g)
	}
}

func BenchmarkAblationA2SGDNoEF(b *testing.B) {
	a := core.New(1_000_000, core.WithoutErrorFeedback())
	g := randGrad(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Encode(g)
	}
}

// The whole local cost of A2SGD: the means pass plus the in-place
// reconstruction pass (the copy restores the gradient between iterations).
func BenchmarkAblationA2SGDSync(b *testing.B) {
	n := 1_000_000
	g := randGrad(n)
	err := comm.RunGroup(1, func(c *comm.Communicator) error {
		a := core.New(n)
		buf := append([]float32(nil), g...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, g)
			if _, err := compress.Sync(a, buf, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// One-mean vs two-level means (the "over-simplification" ablation).
func BenchmarkAblationOneMean(b *testing.B) {
	a := core.New(1_000_000, core.WithOneMean())
	g := randGrad(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Encode(g)
	}
}

// Allreduce vs Allgather for A2SGD's own two-scalar exchange — the paper's
// §4.4 planned optimization.
func benchA2SGDExchange(b *testing.B, opts ...core.Option) {
	n := 4096
	g := randGrad(n)
	err := comm.RunGroup(4, func(c *comm.Communicator) error {
		a := core.New(n, opts...)
		buf := append([]float32(nil), g...)
		for i := 0; i < b.N; i++ {
			copy(buf, g)
			if _, err := compress.Sync(a, buf, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAblationA2SGDViaAllreduce(b *testing.B) { benchA2SGDExchange(b) }
func BenchmarkAblationA2SGDViaAllgather(b *testing.B) {
	benchA2SGDExchange(b, core.WithAllgather())
}

// Periodic (round-reduction) composition: amortized sync every 4 steps.
func BenchmarkAblationPeriodicA2SGD(b *testing.B) {
	n := 256_000
	g := randGrad(n)
	err := comm.RunGroup(4, func(c *comm.Communicator) error {
		alg := compress.NewPeriodic(core.New(n), 4)
		buf := append([]float32(nil), g...)
		for i := 0; i < b.N; i++ {
			copy(buf, g)
			if _, err := compress.Sync(alg, buf, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// Ring vs recursive-doubling allreduce on a bandwidth-bound payload.
func benchAllreduce(b *testing.B, algo comm.AllreduceAlgorithm, n int) {
	err := comm.RunGroup(4, func(c *comm.Communicator) error {
		v := make([]float32, n)
		for i := 0; i < b.N; i++ {
			if err := c.AllreduceSum(v, algo); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAblationRingAllreduce1M(b *testing.B) { benchAllreduce(b, comm.AlgoRing, 1_000_000) }
func BenchmarkAblationRecDblAllreduce1M(b *testing.B) {
	benchAllreduce(b, comm.AlgoRecursiveDoubling, 1_000_000)
}
func BenchmarkAblationRingAllreduce2(b *testing.B) { benchAllreduce(b, comm.AlgoRing, 2) }
func BenchmarkAblationRecDblAllreduce2(b *testing.B) {
	benchAllreduce(b, comm.AlgoRecursiveDoubling, 2)
}
