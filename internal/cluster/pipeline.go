package cluster

import (
	"fmt"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/tensor"
)

// bucketExchangeOp is the typed, pooled unit of work the pipeline hands to an
// executor: one bucket's collective exchange. The pipeline owns an array of
// nb of these and re-fills them in place every step, so posting a bucket
// never allocates — posting a *bucketExchangeOp converts to comm.Op without
// boxing. The exchange reconstructs directly into the bucket's gradient view
// (the layers' live storage).
type bucketExchangeOp struct {
	bk *compress.Bucketed
	b  int
	p  compress.Payload
	v  *tensor.VecView
}

// RunOp runs the exchange on c: the tag-space context communicator a posted
// operation was assigned to, or the rank's own communicator inline. Only a
// failure is wrapped, so the error names its bucket under either executor and
// the success path stays allocation-free.
func (o *bucketExchangeOp) RunOp(c *comm.Communicator) error {
	if err := o.bk.ExchangeBucketView(o.b, o.p, o.v, c); err != nil {
		return fmt.Errorf("bucket %d: %w", o.b, err)
	}
	return nil
}

// DivergenceError is a rank's failed finite check: its gradient held a NaN
// or an infinity at global step Step (the step's wrapping error names it
// too). When several ranks fail it in one step, Train's error names the
// lowest of them first.
type DivergenceError struct {
	Rank, Step int
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("worker %d produced a non-finite gradient (diverged — lower the learning rate)", e.Rank)
}

// pipeline is one rank's bucket pipeline: launch(b) takes bucket b from the
// layers' live gradient storage to an executor, wait joins the step's
// exchanges. The step only chooses the order in which it launches buckets;
// everything a launch needs is owned here and reused across steps.
type pipeline struct {
	cm      *comm.Communicator
	bk      *compress.Bucketed
	overlap bool // post exchanges to the progress workers instead of running them inline

	// Every bucket is direct: its view spans the layers' live gradient
	// storage across however many parameter tensors the range covers, so
	// encode reads — and the exchange reconstructs into — that storage with
	// no gather copy before and no scatter copy after, regardless of where
	// the bucket boundaries fall.
	views []tensor.VecView
	ops   []bucketExchangeOp
	reqs  []comm.Request

	// step is the global step whose buckets are being launched, for a
	// divergence report.
	step int
	// err is the step's first launch failure; it turns the step's remaining
	// launches into no-ops and is reported by wait. A failed step ends the
	// run, so it is never cleared.
	err error

	// Accumulated over the run: encode time summed across buckets, and
	// the wall time the step spent blocked on exchanges (inline: all of it;
	// overlapped: only what wait still had to sit out).
	encodeSec, syncSec float64
}

func newPipeline(cm *comm.Communicator, bk *compress.Bucketed, grads *tensor.VecView, overlap bool) *pipeline {
	nb := bk.NumBuckets()
	p := &pipeline{
		cm: cm, bk: bk, overlap: overlap,
		views: make([]tensor.VecView, nb),
		ops:   make([]bucketExchangeOp, nb),
		reqs:  make([]comm.Request, 0, nb),
	}
	bounds := bk.Bounds()
	for b := range p.views {
		grads.SliceView(bounds[b], bounds[b+1], &p.views[b])
	}
	return p
}

// launch checks bucket b's live gradient view is finite, encodes it in place
// and hands its exchange to the executor: posted to the communicator's
// progress workers under overlap, so it proceeds while the step encodes the
// next bucket, or the same operation run inline. A step launches every bucket
// exactly once, in an order identical on every rank (tag-space contexts are
// assigned by posting sequence). After a failure the step's remaining
// launches are no-ops.
func (p *pipeline) launch(b int) {
	if p.err != nil {
		return
	}
	v := &p.views[b]
	if v.HasNaNOrInf() {
		p.err = &DivergenceError{Rank: p.cm.Rank(), Step: p.step}
		return
	}
	t := time.Now()
	payload := p.bk.EncodeBucketView(b, v)
	p.encodeSec += time.Since(t).Seconds()
	op := &p.ops[b]
	*op = bucketExchangeOp{bk: p.bk, b: b, p: payload, v: v}
	if p.overlap {
		p.reqs = append(p.reqs, p.cm.Post(op))
		return
	}
	t = time.Now()
	p.err = op.RunOp(p.cm)
	p.syncSec += time.Since(t).Seconds()
}

// wait joins every exchange the step posted — after a failed launch too, so
// none is still reconstructing into gradient storage when the step returns —
// and reports the step's launch failure or, without one, the joined exchange
// errors.
func (p *pipeline) wait() error {
	if !p.overlap {
		return p.err
	}
	t := time.Now()
	err := comm.WaitAll(p.reqs)
	p.syncSec += time.Since(t).Seconds()
	p.reqs = p.reqs[:0]
	if p.err != nil {
		return p.err
	}
	return err
}
