package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/tcpnet"
)

// probe is the transport the harness slides under a communicator to measure
// from outside. It counts the bytes and messages the rank sends, takes one
// clock reading per training step (comm.Stepper: the runtime calls
// AdvanceStep at the top of every step, on every rank), and — in the traced
// pass only — records a span around every Send and Recv. It forwards
// comm.BufferedTransport so the inproc fabric keeps its inline-send,
// zero-allocation path.
type probe struct {
	base     comm.Transport
	buffered bool

	bytes atomic.Int64
	msgs  atomic.Int64

	// Written by the rank goroutine only; read after the group has joined.
	epoch     time.Time
	ticks     []int64 // ns since epoch at each AdvanceStep
	tickBytes []int64 // bytes sent so far at each tick
	tickMsgs  []int64

	rec *recorder // nil outside the traced pass
	rt  *rankTrace
	// sendObs, in the traced pass, also receives every send's timing.
	sendObs func(to, nBytes int, sec float64)
}

// newProbe sizes the tick log for steps ticks so AdvanceStep never grows it.
func newProbe(epoch time.Time, steps int, tr *tracing, rank int) *probe {
	p := &probe{
		epoch:     epoch,
		ticks:     make([]int64, 0, steps),
		tickBytes: make([]int64, 0, steps),
		tickMsgs:  make([]int64, 0, steps),
	}
	if tr != nil {
		p.rec, p.rt = tr.rec, &tr.rec.ranks[rank]
		if tr.sendObs != nil {
			p.sendObs = func(to, nBytes int, sec float64) { tr.sendObs(rank, to, nBytes, sec) }
		}
	}
	return p
}

func (p *probe) bind(base comm.Transport) comm.Transport {
	p.base = base
	bt, ok := base.(comm.BufferedTransport)
	p.buffered = ok && bt.SendIsBuffered()
	return p
}

func (p *probe) Rank() int            { return p.base.Rank() }
func (p *probe) Size() int            { return p.base.Size() }
func (p *probe) Close() error         { return p.base.Close() }
func (p *probe) SendIsBuffered() bool { return p.buffered }

func (p *probe) Send(to, tag int, data []float32) error {
	var t0 int64
	if p.rec != nil {
		t0 = p.rec.now()
	}
	if err := p.base.Send(to, tag, data); err != nil {
		return err
	}
	if p.rec != nil {
		t1 := p.rec.now()
		p.rt.add(spSend, uint8(laneSend+(tag>>ctxTagShift)&7), -1, t0, t1)
		if p.sendObs != nil {
			p.sendObs(to, 4*len(data), float64(t1-t0)/1e9)
		}
	}
	p.bytes.Add(int64(4 * len(data)))
	p.msgs.Add(1)
	return nil
}

func (p *probe) Recv(from, tag int, data []float32) error {
	if p.rec == nil {
		return p.base.Recv(from, tag, data)
	}
	t0 := p.rec.now()
	err := p.base.Recv(from, tag, data)
	p.rt.add(spRecv, uint8(laneRecv+(tag>>ctxTagShift)&7), -1, t0, p.rec.now())
	return err
}

// AdvanceStep is the per-step tick.
func (p *probe) AdvanceStep() {
	now := int64(time.Since(p.epoch))
	n := len(p.ticks)
	p.ticks = append(p.ticks, now)
	p.tickBytes = append(p.tickBytes, p.bytes.Load())
	p.tickMsgs = append(p.tickMsgs, p.msgs.Load())
	if p.rec != nil {
		if n > 0 {
			base := int64(p.epoch.Sub(p.rec.epoch))
			p.rt.addAt(spStep, laneMain, -1, int32(n-1), base+p.ticks[n-1], base+now)
		}
		p.rt.step.Store(int32(n))
	}
	if s, ok := p.base.(comm.Stepper); ok {
		s.AdvanceStep()
	}
}

// runGroup is the harness's mpirun: it builds a loopback TCP mesh or an
// in-process fabric for size ranks, lets wrap substitute each rank's
// transport, and runs body on one goroutine per rank. The first failure
// tears the fabric down so no rank can hang on a dead peer, except for a
// cooperative stop, where every rank is about to return on its own.
func runGroup(tcp bool, size int, wrap func(rank int, t comm.Transport) comm.Transport, body func(*comm.Communicator) error) error {
	ts := make([]comm.Transport, size)
	var shutdown func()
	if tcp {
		mesh, stop, err := tcpnet.NewLocalMesh(size)
		if err != nil {
			return err
		}
		for r := range mesh {
			ts[r] = mesh[r]
		}
		shutdown = stop
	} else {
		f := comm.NewInprocFabric(size)
		for r := range ts {
			ts[r] = f.Transport(r)
		}
		shutdown = f.Shutdown
	}
	defer shutdown()
	errs := make([]error, size)
	var once sync.Once
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t := ts[r]
			if wrap != nil {
				t = wrap(r, t)
			}
			if err := body(comm.NewCommunicator(t)); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
				if !errors.Is(err, comm.ErrGroupStop) {
					once.Do(shutdown)
				}
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probedRunner returns a cluster.Config.GroupRunner over runGroup with one
// probe per rank.
func probedRunner(tcp bool, probes []*probe) func(size int, body func(*comm.Communicator) error) error {
	return func(size int, body func(*comm.Communicator) error) error {
		if size != len(probes) {
			return fmt.Errorf("benchmark: %d probes for %d ranks", len(probes), size)
		}
		return runGroup(tcp, size, func(r int, t comm.Transport) comm.Transport { return probes[r].bind(t) }, body)
	}
}
