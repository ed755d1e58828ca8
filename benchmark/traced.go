package main

import (
	"fmt"

	"a2sgd"
	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/netsim"
	"a2sgd/internal/plan"
	"a2sgd/internal/tensor"
)

// tracer is the recorder the traced(...) decorator writes to. The registry
// builds algorithm instances from a spec string, so there is no argument to
// carry a pointer in: the harness sets tracer before a traced pass starts
// and clears it when the pass has joined. Passes never overlap.
var tracer *recorder

// tracedAlg is the spec decorator traced(inner, bucket=b): it spans the view
// Encode/Exchange surface of one bucket's algorithm and is otherwise
// transparent — same name, same payload, same state, so a traced run is
// bitwise equal to the bare one, checkpoints included.
type tracedAlg struct {
	inner  compress.Algorithm
	bucket int
	rec    *recorder
	// The encode span is held back until the exchange, which is the first
	// call that carries a communicator and so names the rank.
	encStart, encEnd int64
}

func init() {
	a2sgd.Register("traced", a2sgd.Builder{
		Summary: "benchmark decorator: spans EncodeView/ExchangeView of the inner algorithm",
		Params:  []a2sgd.ParamSpec{{Name: "bucket", Kind: compress.ParamInt, Doc: "bucket index recorded on the spans"}},
		Wraps:   1,
		Build: func(_ a2sgd.Options, args a2sgd.BuildArgs) (a2sgd.Algorithm, error) {
			return &tracedAlg{inner: args.Inner[0], bucket: args.Int("bucket", 0), rec: tracer}, nil
		},
		Cost: func(_ compress.Options, _ compress.BuildArgs, inner []compress.CostModel) compress.CostModel {
			return inner[0]
		},
	})
}

// traceSchedule wraps every bucket's spec of s in traced(..., bucket=b).
func traceSchedule(s *plan.Schedule) error {
	for b, sp := range s.Specs {
		w, err := compress.Parse(fmt.Sprintf("traced(%s, bucket=%d)", sp, b))
		if err != nil {
			return err
		}
		s.Specs[b] = w
	}
	return nil
}

func (t *tracedAlg) Name() string                      { return t.inner.Name() }
func (t *tracedAlg) ExchangeKind() netsim.ExchangeKind { return t.inner.ExchangeKind() }
func (t *tracedAlg) PayloadBytes(n int) int64          { return t.inner.PayloadBytes(n) }
func (t *tracedAlg) Reset()                            { t.inner.Reset() }

// The flat surface is part of the interface but not of the runtime's step
// loop; it forwards without spans.
func (t *tracedAlg) Encode(g []float32) compress.Payload { return t.inner.Encode(g) }
func (t *tracedAlg) Exchange(p compress.Payload, g []float32, c *comm.Communicator) error {
	return t.inner.Exchange(p, g, c)
}

func (t *tracedAlg) EncodeView(v *tensor.VecView) compress.Payload {
	if t.rec == nil {
		return t.inner.EncodeView(v)
	}
	t.encStart = t.rec.now()
	p := t.inner.EncodeView(v)
	t.encEnd = t.rec.now()
	return p
}

func (t *tracedAlg) ExchangeView(p compress.Payload, v *tensor.VecView, c *comm.Communicator) error {
	if t.rec == nil {
		return t.inner.ExchangeView(p, v, c)
	}
	rt := &t.rec.ranks[c.Rank()]
	rt.add(spEncode, laneMain, t.bucket, t.encStart, t.encEnd)
	t0 := t.rec.now()
	err := t.inner.ExchangeView(p, v, c)
	rt.add(spExchange, rt.exchangeLane(c), t.bucket, t0, t.rec.now())
	return err
}

// SaveState and LoadState forward the inner algorithm's cross-step state, so
// snapshots taken through the decorator equal the bare ones.
func (t *tracedAlg) SaveState() compress.State {
	if sv, ok := t.inner.(compress.StateSaver); ok {
		return sv.SaveState()
	}
	return compress.State{}
}

func (t *tracedAlg) LoadState(s compress.State) {
	if ld, ok := t.inner.(compress.StateLoader); ok {
		ld.LoadState(s)
	}
}
