package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/data"
	"a2sgd/internal/models"
	"a2sgd/internal/nn"
	"a2sgd/internal/tensor"
)

// HotPathPoint is one steady-state hot-path measurement: the per-operation
// wall time, allocation count and allocated bytes of a warmed instance.
// Allocs/op is the headline — the zero-allocation contract (ARCHITECTURE.md
// "Memory discipline & hot path") pins it to 0 for the encode and inproc
// collective rows.
type HotPathPoint struct {
	Name        string  `json:"name"`
	N           int     `json:"n"` // elements per operation
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// StreamShare is MBPerSec over the stream/copy row's of the same run, on
	// the rows whose MBPerSec counts bytes touched (kernel/*): how close the
	// kernel runs to what this box streams at that moment. At or above ~0.6 a
	// wider kernel has nothing left to win.
	StreamShare float64 `json:"stream_share,omitempty"`
}

// HotPathReport aggregates one run of the hot-path suite — the payload of
// BENCH_hotpath.json, the perf-trajectory file regenerated per PR by
// `a2sgdbench -experiment hotpath -json`.
type HotPathReport struct {
	GOMAXPROCS  int            `json:"gomaxprocs"`
	ZeroCopyNet bool           `json:"zero_copy_net"` // tensor.BitsZeroCopy on this build
	Points      []HotPathPoint `json:"points"`
	// OverlapEfficiency is how much of the hideable synchronization time the
	// overlapped step actually hides: (tSerial − tOverlap) / (tSerial −
	// tEncodeOnly), where tSerial is the blocking encode+exchange step,
	// tOverlap the best overlapped variant of the concurrency sweep, and
	// tEncodeOnly the pure local encode (the floor no overlap can beat).
	// 1.0 = the exchange is completely hidden behind posting; 0 = overlap
	// bought nothing.
	OverlapEfficiency float64 `json:"overlap_efficiency,omitempty"`
}

// tcpRingN is the bucket of the tcpnet allreduce row: 2 Mi float32 = 8 MiB.
const tcpRingN = 2 << 20

// meanOp is the posted AllreduceMean of the tcpnet allreduce row.
type meanOp struct{ v []float32 }

func (o *meanOp) RunOp(c *comm.Communicator) error { return c.AllreduceMean(o.v, comm.AlgoRing) }

// tcpRingRow measures the allreduce/tcp-ring-2 row: 2 ranks over tcpnet,
// 2 tag-space contexts, two posted tcpRingN-float AllreduceMeans per op
// whose frames interleave on each link, so frames for the other context are
// stashed in pooled transit buffers. It times a fixed run by hand instead
// of through testing.Benchmark, whose collection before every round empties
// that pool and the runtime's caches: with the collector off from the
// warm-up on, allocs/op counts the exchange's own allocations (sendRecv's
// send goroutines), not how often a cache was refilled.
func tcpRingRow() (testing.BenchmarkResult, error) {
	const ranks, posts, warm, ops = 2, 2, 64, 64
	cs, shutdown, err := tcpnet.NewLocalGroup(ranks)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer shutdown()
	vs := make([][posts]meanOp, ranks)
	for r, c := range cs {
		if err := c.SetConcurrency(posts); err != nil {
			return testing.BenchmarkResult{}, err
		}
		for i := range vs[r] {
			vs[r][i].v = make([]float32, tcpRingN)
		}
	}
	run := func(iters int) error {
		return comm.Launch(cs, shutdown, func(c *comm.Communicator) error {
			o := &vs[c.Rank()]
			reqs := make([]comm.Request, posts)
			for i := 0; i < iters; i++ {
				for j := range o {
					reqs[j] = c.Post(&o[j])
				}
				if err := comm.WaitAll(reqs); err != nil {
					return err
				}
			}
			return nil
		})
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := run(warm); err != nil {
		return testing.BenchmarkResult{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = run(ops)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return testing.BenchmarkResult{
		N: ops, T: elapsed,
		MemAllocs: after.Mallocs - before.Mallocs,
		MemBytes:  after.TotalAlloc - before.TotalAlloc,
	}, err
}

// hotPathN is the vgg16-scale bucket the suite measures: 1 M float32
// elements = 4 MiB, the raw size of a large convolutional layer's bucket.
const hotPathN = 1 << 20

// bucketOp is the pooled typed exchange operation of the step sweep — the
// same shape the cluster runtime posts through comm.Post, so the benchmark
// pays exactly the training loop's posting cost (zero allocations).
type bucketOp struct {
	bk *compress.Bucketed
	b  int
	p  compress.Payload
	v  *tensor.VecView
}

func (o *bucketOp) RunOp(c *comm.Communicator) error {
	return o.bk.ExchangeBucketView(o.b, o.p, o.v, c)
}

// vggConvShapes are the reduced vgg16's six convolutions as (output
// channels, im2col depth C·3·3, output pixels).
var vggConvShapes = [][3]int{{8, 27, 256}, {16, 72, 64}, {24, 144, 16}, {24, 216, 16}, {32, 216, 4}, {32, 288, 4}}

// vggConvIn are the input volumes of the same six convolutions (3×3, stride
// 1, pad 1).
var vggConvIn = []nn.Shape{{C: 3, H: 16, W: 16}, {C: 8, H: 8, W: 8}, {C: 16, H: 4, W: 4}, {C: 24, H: 4, W: 4}, {C: 24, H: 2, W: 2}, {C: 32, H: 2, W: 2}}

// computeRung adds the compute rung's points — the bottom of the ladder the
// repository benchmark reports as tensor.matmul_gflops and nn.step_ms.*: the
// LSTM gates' sigmoid and tanh over 4096 N(0, 2²) pre-activations and over
// 32 of them (one gate section of a reduced-lstm row), a draw of 4096
// standard normals, the 256³ multiply, the matrix products of a
// reduced-vgg16 step at batch 16 (per convolution: the forward a×b and the
// column gradient aᵀ×b over the whole batch, and the weight gradient a×bᵀ
// once per sample — the per-sample form, kept so the row compares across
// entries), the six weight gradients alone as Conv2D.Backward
// issues them (one segmented product per layer over the batch's tape,
// transposed and packed), the six convolutions' forward and backward passes
// at batch 16, the forward + backward passes of its batch norms, pools and
// ReLUs at batch 16, the reduced lstm's forward cell, BPTT gate gradient
// and softmax loss over one sequence, the vgg16 step's batch draw of 16
// images, and a warm ZeroGrads+Step of the two benchmark models. Their n is
// elements (tensor/*, the input elements of the nn/batchnorm, maxpool and
// relu rows, the elements written by the nn/lstm and softmax rows),
// multiply-adds per operation (gemm/*), pixels drawn (data/*) or parameters
// (nn/step-*); allocs/op is part of the contract for every row.
func computeRung(add func(name string, n int, bytesMoved int64, r testing.BenchmarkResult)) error {
	rng := tensor.NewRNG(13)
	{
		const n = 4096
		src, dst := make([]float32, n), make([]float32, n)
		rng.NormVec(src, 0, 2)
		for _, k := range []struct {
			name string
			f    func(dst, src tensor.Vec)
		}{{"tensor/sigmoid-4k", tensor.Sigmoid}, {"tensor/tanh-4k", tensor.Tanh}} {
			add(k.name, n, 0, testing.Benchmark(func(bm *testing.B) {
				for i := 0; i < bm.N; i++ {
					k.f(dst, src)
				}
			}))
		}
		for _, k := range []struct {
			name string
			f    func(dst, src tensor.Vec)
		}{{"tensor/sigmoid-32", tensor.Sigmoid}, {"tensor/tanh-32", tensor.Tanh}} {
			add(k.name, 32, 0, testing.Benchmark(func(bm *testing.B) {
				for i := 0; i < bm.N; i++ {
					k.f(dst[:32], src[:32])
				}
			}))
		}
		add("tensor/normvec-4k", n, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				rng.NormVec(dst, 0, 1)
			}
		}))
	}
	mat := func(rows, cols int) *tensor.Mat {
		m := tensor.NewMat(rows, cols)
		rng.NormVec(m.Data, 0, 1)
		return m
	}
	{
		const n = 256
		a, b, c := mat(n, n), mat(n, n), mat(n, n)
		add("gemm/nn-256", n*n*n, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				tensor.MatMul(c, a, b)
			}
		}))
	}
	{
		const batch = 16
		type product struct {
			f         func(dst, a, b *tensor.Mat)
			dst, a, b *tensor.Mat
			times     int
		}
		var ps []product
		macs := 0
		for _, s := range vggConvShapes {
			outC, k, ohw := s[0], s[1], s[2]
			ps = append(ps,
				product{tensor.MatMul, mat(outC, batch*ohw), mat(outC, k), mat(k, batch*ohw), 1},
				product{tensor.MatMulATB, mat(k, batch*ohw), mat(outC, k), mat(outC, batch*ohw), 1},
				product{tensor.MatMulABT, mat(outC, k), mat(outC, ohw), mat(k, ohw), batch})
			macs += 3 * outC * k * batch * ohw
		}
		add("gemm/vgg-shapes", macs, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				for _, p := range ps {
					for t := 0; t < p.times; t++ {
						p.f(p.dst, p.a, p.b)
					}
				}
			}
		}))
	}
	{
		// The weight gradient of every convolution as Conv2D issues it: one
		// segmented product per layer, dW += do × tapeᵀ with do the batch's
		// OutC × batch·oh·ow output gradient, channel-major, and the tape
		// read transposed — the B operand Gemm packs — one segment of
		// oh·ow steps per sample.
		const batch = 16
		type wgrad struct{ gw, tape, doT *tensor.Mat }
		var ws []wgrad
		macs := 0
		for _, s := range vggConvShapes {
			outC, k, ohw := s[0], s[1], s[2]
			ws = append(ws, wgrad{tensor.NewMat(outC, k), mat(k, batch*ohw), mat(outC, batch*ohw)})
			macs += outC * k * batch * ohw
		}
		add("gemm/wgrad-vgg16", macs, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				for j, w := range ws {
					tensor.GemmAddSegmented(w.gw.View(), w.doT.View(), w.tape.T(), vggConvShapes[j][2])
				}
			}
		}))
	}
	{
		// Conv2D.Forward in training mode, all six layers at batch 16: the
		// lowering, the product and the bias add as it transposes.
		const batch = 16
		var convs []*nn.Conv2D
		var xs []*tensor.Mat
		params := 0
		for i, in := range vggConvIn {
			c := nn.NewConv2D(rng, in, vggConvShapes[i][0], 3, 1, 1)
			x := mat(batch, in.Size())
			c.Forward(x, true) // warm-up: grows the tape and output workspaces
			convs, xs = append(convs, c), append(xs, x)
			params += len(c.W) + len(c.B)
		}
		add("nn/conv-forward-vgg16", params, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				for j, c := range convs {
					c.Forward(xs[j], true)
				}
			}
		}))
	}
	{
		// Conv2D.Backward after one training Forward, all six layers: the
		// bias and weight gradients, the tape gradient and its scatter.
		const batch = 16
		var convs []*nn.Conv2D
		var douts []*tensor.Mat
		params := 0
		for i, in := range vggConvIn {
			c := nn.NewConv2D(rng, in, vggConvShapes[i][0], 3, 1, 1)
			c.Forward(mat(batch, in.Size()), true)
			convs = append(convs, c)
			douts = append(douts, mat(batch, c.OutShape().Size()))
			params += len(c.W) + len(c.B)
		}
		backward := func() {
			for i, c := range convs {
				c.Backward(douts[i])
			}
		}
		backward() // warm-up: grows the tape-gradient and input-gradient workspaces
		add("nn/conv-backward-vgg16", params, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				backward()
			}
		}))
	}
	{
		// Forward + backward of the reduced vgg16's six batch norms and six
		// ReLUs (one after each convolution) and of its four 2×2 pools, at
		// batch 16; n is the layers' input elements.
		const batch = 16
		layerRow := func(name string, shapes []nn.Shape, layer func(nn.Shape) nn.Layer) {
			var ls []nn.Layer
			var xs, douts []*tensor.Mat
			n := 0
			for _, s := range shapes {
				l := layer(s)
				x := mat(batch, s.Size())
				y := l.Forward(x, true)
				ls, xs = append(ls, l), append(xs, x)
				douts = append(douts, mat(batch, y.Cols))
				n += batch * s.Size()
			}
			pass := func() {
				for i, l := range ls {
					l.Forward(xs[i], true)
					l.Backward(douts[i])
				}
			}
			pass() // warm-up: grows the layers' workspaces
			add(name, n, 0, testing.Benchmark(func(bm *testing.B) {
				for i := 0; i < bm.N; i++ {
					pass()
				}
			}))
		}
		var convOut []nn.Shape
		for i, in := range vggConvIn {
			convOut = append(convOut, nn.Shape{C: vggConvShapes[i][0], H: in.H, W: in.W})
		}
		pooled := []nn.Shape{convOut[0], convOut[1], convOut[3], convOut[5]}
		layerRow("nn/batchnorm-vgg16", convOut, func(s nn.Shape) nn.Layer { return nn.NewBatchNorm2D(s) })
		layerRow("nn/maxpool-vgg16", pooled, func(s nn.Shape) nn.Layer { return nn.NewMaxPool2D(s, 2) })
		layerRow("nn/relu-vgg16", convOut, func(nn.Shape) nn.Layer { return nn.NewReLU() })
	}
	{
		// The reduced lstm's forward cell over one sequence, 12 steps of 16
		// rows at H = 32, each step one LSTMCell call (bias add, activations,
		// cell update, tanh(c)); n is the gate elements. The cell writes the
		// gates in place, so each pass runs on the previous pass's
		// activations.
		const steps, rows, h = 12, 16, 32
		gates, bias := mat(steps*rows, 4*h), mat(1, 4*h)
		cs, tanhC, hs := mat((steps+1)*rows, h), mat(steps*rows, h), mat(steps*rows, h)
		add("nn/lstm-cell", steps*rows*4*h, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				for t := 0; t < steps; t++ {
					lo, hi := t*rows*h, (t+1)*rows*h
					tensor.LSTMCell(gates.Data[4*lo:4*hi], cs.Data[hi:hi+rows*h], tanhC.Data[lo:hi],
						hs.Data[lo:hi], cs.Data[lo:hi], bias.Data, h)
				}
			}
		}))
	}
	{
		// The reduced lstm's BPTT gate gradient over one sequence, 11 steps
		// of 16 rows at H = 32 in descending time, and its softmax loss over
		// the sequence's 176 rows of 64 logits; n is the gradient elements
		// each writes. The gates and tanh(c) are activations, so the carried
		// cell gradient stays bounded.
		const steps, rows, h, vocab = 11, 16, 32, 64
		gates, tanhC := mat(steps*rows, 4*h), mat(steps*rows, h)
		tensor.Sigmoid(gates.Data, gates.Data)
		tensor.Tanh(tanhC.Data, tanhC.Data)
		cPrev, dh, dz, dc := mat(steps*rows, h), mat(steps*rows, h), mat(steps*rows, 4*h), mat(rows, h)
		add("nn/lstm-gategrad", steps*rows*4*h, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				for t := steps - 1; t >= 0; t-- {
					lo, hi := t*rows*h, (t+1)*rows*h
					tensor.LSTMGateGrad(dz.Data[4*lo:4*hi], dc.Data, gates.Data[4*lo:4*hi],
						tanhC.Data[lo:hi], cPrev.Data[lo:hi], dh.Data[lo:hi], h)
				}
			}
		}))
		logits, labels := mat(steps*rows, vocab), make([]int, steps*rows)
		for i := range labels {
			labels[i] = 7 * i % vocab
		}
		var ce nn.SoftmaxLoss
		ce.Loss(logits, labels) // warm-up: grows the gradient and exponential workspaces
		add("nn/softmax-lstm", steps*rows*vocab, 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				ce.Loss(logits, labels)
			}
		}))
	}
	for _, fam := range []string{"vgg16", "lstm"} {
		m, err := models.New(models.Config{Family: fam, Seed: 1, Reduced: true})
		if err != nil {
			return err
		}
		img, txt, err := data.ForFamily(fam, 1)
		if err != nil {
			return err
		}
		var batch models.Batch
		if img != nil {
			batch = img.Sample(rng, 16)
			draw := tensor.NewRNG(17)
			var b models.Batch
			img.SampleInto(draw, 16, &b) // warm-up: sizes the batch once
			add("data/sample-"+fam+"-16", b.X.Rows*b.X.Cols, 0, testing.Benchmark(func(bm *testing.B) {
				for i := 0; i < bm.N; i++ {
					img.SampleInto(draw, 16, &b)
				}
			}))
		} else {
			batch = txt.Sample(rng, 16, 12)
		}
		m.ZeroGrads()
		m.Step(batch) // warm-up: grows the layer workspaces once
		add("nn/step-"+fam, m.NumParams(), 0, testing.Benchmark(func(bm *testing.B) {
			for i := 0; i < bm.N; i++ {
				m.ZeroGrads()
				m.Step(batch)
			}
		}))
	}
	return nil
}

// HotPath measures the steady-state hot path: warmed-instance Encode/Decode
// for the paper's compression set, A2SGD's two kernels beside a copy of the
// same footprint, the inproc allreduce, the tcpnet framed send/receive of
// a 4 MiB bucket, the tcpnet allreduce of two posted buckets, and one full
// bucketed synchronization step.
// Every measurement excludes the warm-up call that grows instance scratch, so
// allocs/op reports the steady state the training loop lives in.
func HotPath(w io.Writer) (*HotPathReport, error) {
	rep := &HotPathReport{GOMAXPROCS: runtime.GOMAXPROCS(0), ZeroCopyNet: tensor.BitsZeroCopy()}
	g := make([]float32, hotPathN)
	tensor.NewRNG(11).NormVec(g, 0, 0.05)

	add := func(name string, n int, bytesMoved int64, r testing.BenchmarkResult) {
		p := HotPathPoint{
			Name: name, N: n,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if bytesMoved > 0 && r.NsPerOp() > 0 {
			p.MBPerSec = float64(bytesMoved) / 1e6 * 1e9 / float64(r.NsPerOp())
		}
		rep.Points = append(rep.Points, p)
	}

	// Encode on a warm instance, per algorithm (Figure 2's quantity, now with
	// the allocation count alongside), plus qsgd-elias — its batched
	// Elias-gamma bit-writer is a hot-path kernel in its own right.
	encodeAlgos := append(append([]string(nil), Figure2Algos...), "qsgd-elias")
	for _, name := range encodeAlgos {
		alg := newAlgo(name, hotPathN, 3)
		alg.Encode(g) // warm-up: grows the instance scratch once
		add("encode/"+name, hotPathN, 4*hotPathN, testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg.Encode(g)
			}
		}))
	}

	// Encode rung: A2SGD's two passes alone — the signed means (one read of
	// the bucket) and the signed shift (one read-modify-write) — and, as the
	// normalizer that makes entries from different sessions comparable, a
	// copy of the same 4 MiB footprint. MB/s counts bytes touched.
	{
		v := append([]float32(nil), g...)
		dst := make([]float32, hotPathN)
		mp, mn, _ := tensor.SignedMeans(v)
		copyRate := 0.0
		for _, k := range []struct {
			name    string
			touched int64
			f       func()
		}{
			{"stream/copy", 8 * hotPathN, func() { copy(dst, v) }},
			{"kernel/signed-means", 4 * hotPathN, func() { tensor.SignedMeans(v) }},
			{"kernel/signed-shift", 8 * hotPathN, func() { tensor.SignedShift(v, mp, mn, mp, mn) }},
		} {
			add(k.name, hotPathN, k.touched, testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.f()
				}
			}))
			if p := &rep.Points[len(rep.Points)-1]; copyRate == 0 {
				copyRate = p.MBPerSec
			} else {
				p.StreamShare = p.MBPerSec / copyRate
			}
		}
	}

	// QSGD decode of one packed stream into a warm destination.
	{
		o := compress.DefaultOptions(hotPathN)
		o.Seed = 3
		q := compress.NewQSGD(o)
		p := q.Encode(g)
		stream := append([]float32(nil), p.Data...) // retained copy (payload contract)
		dst := make([]float32, hotPathN)
		q.Decode(stream, dst)
		add("decode/qsgd", hotPathN, 4*hotPathN, testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q.Decode(stream, dst)
			}
		}))
	}

	// Inproc ring allreduce, 4 ranks in lockstep on one persistent fabric.
	add("allreduce/inproc-ring-4", hotPathN, 4*hotPathN, testing.Benchmark(func(b *testing.B) {
		const workers = 4
		f := comm.NewInprocFabric(workers)
		cs := f.Communicators()
		vs := make([][]float32, workers)
		for r := range vs {
			vs[r] = make([]float32, hotPathN)
		}
		warmAndRun := func(iters int) error {
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for r := 0; r < workers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if err := cs[r].AllreduceMean(vs[r], comm.AlgoRing); err != nil {
							errs <- err
							return
						}
					}
				}(r)
			}
			wg.Wait()
			select {
			case err := <-errs:
				return err
			default:
				return nil
			}
		}
		if err := warmAndRun(1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := warmAndRun(b.N); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		f.Shutdown()
	}))

	// tcpnet framed transfer of one 4 MiB bucket: rank 0 streams to rank 1.
	var meshErr error
	add("tcpnet/sendrecv-4MiB", hotPathN, 2*4*hotPathN, testing.Benchmark(func(b *testing.B) {
		ts, shutdown, err := tcpnet.NewLocalMesh(2)
		if err != nil {
			meshErr = err
			b.Skip(err)
		}
		defer shutdown()
		src := make([]float32, hotPathN)
		copy(src, g)
		dst := make([]float32, hotPathN)
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
		if err := run(1); err != nil { // warm-up: grows the wire scratch
			meshErr = err
			b.Skip(err)
		}
		b.ResetTimer()
		if err := run(b.N); err != nil {
			meshErr = err
			b.Skip(err)
		}
	}))

	// Tcpnet ring allreduce in sync-dense's shape at half its bucket count.
	if r, err := tcpRingRow(); err != nil {
		meshErr = err
	} else {
		add("allreduce/tcp-ring-2", 2*tcpRingN, 4*2*tcpRingN, r)
	}
	if meshErr != nil {
		return nil, fmt.Errorf("bench: hotpath tcpnet: %w", meshErr)
	}

	if err := computeRung(add); err != nil {
		return nil, err
	}

	// One full bucketed synchronization step: 4 workers, the 4 MiB gradient in
	// 4 buckets — the shape of the training runtime's step loop — measured as
	// a concurrency sweep. "serial" blocks on each bucket's exchange before
	// encoding the next; "encode-only" is the pure local encode (the floor no
	// overlap can beat); the overlapped variants post every bucket as a typed
	// pooled operation and WaitAll, at concurrency 1 (the deterministic mode;
	// keeps the historical step/bucketed-a2sgd-4x4 name so the perf trajectory
	// stays comparable) and at 4 tag-space contexts. The sweep's best
	// overlapped time against the serial and encode-only anchors yields
	// OverlapEfficiency.
	stepBench := func(mode string, concurrency int) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			const workers, buckets = 4, 4
			f := comm.NewInprocFabric(workers)
			cs := f.Communicators()
			bounds := make([]int, buckets+1)
			for i := range bounds {
				bounds[i] = i * hotPathN / buckets
			}
			algs := make([]*compress.Bucketed, workers)
			views := make([][]tensor.VecView, workers) // one-segment view per bucket: the flat code path
			ops := make([][]bucketOp, workers)
			reqBufs := make([][]comm.Request, workers)
			for r := 0; r < workers; r++ {
				rr := r
				algs[r] = compress.NewBucketed(bounds, func(bk, n int) compress.Algorithm {
					o := compress.DefaultOptions(n)
					o.Seed = compress.BucketSeed(5, rr, bk)
					a, err := compress.Build(&compress.Spec{Name: "a2sgd"}, o)
					if err != nil {
						panic(err)
					}
					return a
				})
				grad := append([]float32(nil), g...)
				views[r] = make([]tensor.VecView, buckets)
				for i := range views[r] {
					views[r][i].Reset1(grad[bounds[i]:bounds[i+1]])
				}
				ops[r] = make([]bucketOp, buckets)
				reqBufs[r] = make([]comm.Request, 0, buckets)
				if concurrency > 1 {
					if err := cs[r].SetConcurrency(concurrency); err != nil {
						b.Fatal(err)
					}
				}
			}
			step := func(r int) error {
				bk := algs[r]
				switch mode {
				case "encode":
					for i := 0; i < buckets; i++ {
						bk.EncodeBucketView(i, &views[r][i])
					}
					return nil
				case "serial":
					for i := 0; i < buckets; i++ {
						v := &views[r][i]
						if err := bk.ExchangeBucketView(i, bk.EncodeBucketView(i, v), v, cs[r]); err != nil {
							return err
						}
					}
					return nil
				default: // overlap: typed pooled posts, then one WaitAll
					reqs := reqBufs[r][:0]
					for i := 0; i < buckets; i++ {
						v := &views[r][i]
						ops[r][i] = bucketOp{bk: bk, b: i, p: bk.EncodeBucketView(i, v), v: v}
						reqs = append(reqs, cs[r].Post(&ops[r][i]))
					}
					reqBufs[r] = reqs
					return comm.WaitAll(reqs)
				}
			}
			// run spawns the per-rank step loops gated on a start barrier, so
			// the measured pass can reset the timer (and the allocation
			// counter) after the goroutine spawns: what's counted is the
			// steps, not the harness.
			run := func(iters int, started func()) error {
				var wg sync.WaitGroup
				errs := make(chan error, workers)
				start := make(chan struct{})
				for r := 0; r < workers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						<-start
						for i := 0; i < iters; i++ {
							if err := step(r); err != nil {
								errs <- err
								return
							}
						}
					}(r)
				}
				started()
				close(start)
				wg.Wait()
				select {
				case err := <-errs:
					return err
				default:
					return nil
				}
			}
			if err := run(1, func() {}); err != nil {
				b.Fatal(err)
			}
			err := run(b.N, b.ResetTimer)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			f.Shutdown()
		})
	}
	rSerial := stepBench("serial", 1)
	rEncode := stepBench("encode", 1)
	rCtx1 := stepBench("overlap", 1)
	rCtx4 := stepBench("overlap", 4)
	add("step/serial-4x4", hotPathN, 4*hotPathN, rSerial)
	add("step/encode-only-4x4", hotPathN, 4*hotPathN, rEncode)
	add("step/bucketed-a2sgd-4x4", hotPathN, 4*hotPathN, rCtx1)
	add("step/overlap-ctx4-4x4", hotPathN, 4*hotPathN, rCtx4)
	tSerial, tEncode := float64(rSerial.NsPerOp()), float64(rEncode.NsPerOp())
	tOverlap := float64(rCtx1.NsPerOp())
	if t4 := float64(rCtx4.NsPerOp()); t4 < tOverlap {
		tOverlap = t4
	}
	if hideable := tSerial - tEncode; hideable > 0 {
		rep.OverlapEfficiency = (tSerial - tOverlap) / hideable
	}

	fmt.Fprintf(w, "Hot path steady state (n = %d elements, GOMAXPROCS = %d, zero-copy net = %v)\n",
		hotPathN, rep.GOMAXPROCS, rep.ZeroCopyNet)
	rows := make([][]string, 0, len(rep.Points))
	for _, p := range rep.Points {
		mb, share := "", ""
		if p.MBPerSec > 0 {
			mb = fmt.Sprintf("%.0f", p.MBPerSec)
		}
		if p.StreamShare > 0 {
			share = fmt.Sprintf("%.0f%%", 100*p.StreamShare)
		}
		rows = append(rows, []string{
			p.Name, fmt.Sprintf("%.0f", p.NsPerOp), fmt.Sprintf("%.3g", p.NsPerOp/float64(p.N)),
			fmt.Sprintf("%d", p.AllocsPerOp), fmt.Sprintf("%d", p.BytesPerOp), mb, share,
		})
	}
	table(w, []string{"op", "ns/op", "ns/elem", "allocs/op", "B/op", "MB/s", "of stream/copy"}, rows)
	if rep.OverlapEfficiency != 0 {
		fmt.Fprintf(w, "overlap efficiency: %.2f (share of hideable exchange time the overlapped step hides)\n",
			rep.OverlapEfficiency)
	}
	return rep, nil
}
