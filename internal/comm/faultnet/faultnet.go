// Package faultnet injects seeded, per-link, deterministic faults into any
// comm.Transport — the inproc fabric and the tcpnet mesh alike — so the
// failure contract of the comm layer (I/O deadlines, transient-error retry,
// fail-fast joined errors) can be tested without a real degraded network.
//
// A Mesh holds the shared fault state of one rank group: per-link seeded RNG
// streams (tensor.RNG), per-rank step counters and crash/stall flags, and
// the reorder holdback machinery. Each rank wraps its base transport with
// Mesh.Transport; every Send then passes through the scenario's rules:
//
//   - delay/bw/loss rules synchronously sleep the sender (α + β·bytes +
//     jitter, bandwidth-cap β, loss-driven resend delay), multiplied for
//     ranks under a straggler rule (step function) or a degrade rule (linear
//     ramp to the factor, driven by the rank's step counter) — modelling wire
//     time as occupancy of the sending side, which is what makes the injected
//     slowdown comparable to the netsim α–β price laws. Ranks listed in
//     Scenario.Backup are exempt from both: a warm clone's clean stream wins
//     the race, so the mesh models the winner.
//   - dup rules legally duplicate a message: payloads gain a one-element
//     meta header announcing the duplicate and the receiver swallows it, so
//     collectives observe exactly-once delivery over an at-least-once link.
//   - reorder rules legally reorder: a held message is released a moment
//     later by a background goroutine while later *different-tag* messages
//     overtake it. Same-tag order is preserved (the Transport contract), and
//     the tag matchers in both base transports make cross-tag reordering
//     invisible to the collectives.
//   - flap/partition rules make sends on affected links fail with a
//     Transient *comm.PeerError while the link is down (a seeded duty cycle
//     or a wall-clock window) — injected before the base send, so the
//     communicator's retry policy can reissue them safely.
//   - crash/stall rules fire when the rank's step counter (advanced by
//     cluster.Train via comm.Communicator.AdvanceStep at the top of each
//     step's boundary, before its snapshot) reaches the rule's step: a crash invokes the mesh's kill hook (inproc Kill / tcpnet
//     Close) so every rank observes a peer-scoped failure; a stall silently
//     drops the rank's sends, which only the peers' I/O deadlines can
//     detect.
//
// With no rules and no deadline the wrapper is never installed — GroupRunner
// hands out the base transports untouched, so the zero-allocation steady
// state of the fault-free path is unaffected.
package faultnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/tensor"
)

// holdWindow is how long a reordered message is held back before its
// background release; long enough for later sends to overtake it, short
// enough to never stall progress noticeably.
const holdWindow = 300 * time.Microsecond

// stragglerFloor is the minimum per-message delay a straggler rule
// multiplies when no delay rule priced the link.
const stragglerFloor = 20 * time.Microsecond

var errLinkDown = errors.New("faultnet: link down")

// Mesh is the shared fault state of one rank group under one scenario.
type Mesh struct {
	sc    *Scenario
	size  int
	start time.Time
	// kill is invoked once when a crash rule fires for a rank.
	kill func(rank int)
	// headered is set when any dup rule exists: every payload on every link
	// then carries a one-element meta header (see rawSend/unwrapRecv).
	headered bool

	steps   []atomic.Int64
	crashed []atomic.Bool
	stalled []atomic.Bool
	// backup marks ranks whose straggler/degrade slowdowns are masked
	// because a warm clone duplicates their shard (Scenario.Backup).
	backup []bool

	links []linkState // [src*size+dst]
	pool  sync.Pool   // *[]float32 headered-payload staging buffers
	wg    sync.WaitGroup
}

// linkState is the per-(src,dst) fault state: the seeded draw stream and the
// reorder holdback bookkeeping.
type linkState struct {
	mu   sync.Mutex
	cond sync.Cond
	rng  *tensor.RNG
	// heldTags counts in-flight held messages per tag: a same-tag send must
	// wait for the release to preserve per-tag FIFO, while different tags
	// overtake freely (that is the reorder).
	heldTags map[int]int
	// asyncErr is the sticky error of a failed background release.
	asyncErr error
}

// NewMesh builds the fault state for a size-rank group. kill, when non-nil,
// is called exactly once per crashing rank (inproc: fabric.Kill; tcpnet:
// the rank transport's Close).
func NewMesh(sc *Scenario, size int, kill func(rank int)) *Mesh {
	m := &Mesh{
		sc: sc, size: size, start: time.Now(), kill: kill,
		steps:   make([]atomic.Int64, size),
		crashed: make([]atomic.Bool, size),
		stalled: make([]atomic.Bool, size),
		backup:  make([]bool, size),
		links:   make([]linkState, size*size),
	}
	for _, r := range sc.Backup {
		if r >= 0 && r < size {
			m.backup[r] = true
		}
	}
	m.pool.New = func() any { return new([]float32) }
	for i := range m.links {
		ls := &m.links[i]
		ls.cond.L = &ls.mu
		src, dst := i/size, i%size
		// One independent, reproducible stream per ordered link.
		ls.rng = tensor.NewRNG(sc.Seed*1_000_003 + uint64(src)*8191 + uint64(dst) + 1)
		ls.heldTags = map[int]int{}
	}
	for _, r := range sc.Rules {
		if r.Kind == RuleDup {
			m.headered = true
		}
	}
	return m
}

// Stop waits for in-flight holdback releases; call after the group joins so
// no goroutine outlives the run.
func (m *Mesh) Stop() { m.wg.Wait() }

func (m *Mesh) link(src, dst int) *linkState { return &m.links[src*m.size+dst] }

// Transport wraps one rank's base transport with the mesh's fault rules.
func (m *Mesh) Transport(rank int, base comm.Transport) comm.Transport {
	return &transport{m: m, rank: rank, base: base}
}

// linkDown reports the transient link-down error of an active flap window or
// partition interval covering (src,dst), or nil.
func (m *Mesh) linkDown(src, dst int) error {
	now := time.Since(m.start)
	for i := range m.sc.Rules {
		r := &m.sc.Rules[i]
		switch r.Kind {
		case RuleFlap:
			if r.Rank == src || r.Rank == dst {
				if now%r.Period >= time.Duration(float64(r.Period)*r.Duty) {
					return &comm.PeerError{Rank: dst, Op: "send", Transient: true,
						Err: fmt.Errorf("%w (flapping rank %d)", errLinkDown, r.Rank)}
				}
			}
		case RulePartition:
			if now >= r.After && now < r.After+r.Dur && crossesPartition(r.Groups, src, dst) {
				return &comm.PeerError{Rank: dst, Op: "send", Transient: true,
					Err: fmt.Errorf("%w (partition)", errLinkDown)}
			}
		}
	}
	return nil
}

// crossesPartition reports whether src and dst sit on different sides; ranks
// not listed in any group are unaffected.
func crossesPartition(groups [][]int, src, dst int) bool {
	side := func(rank int) int {
		for i, g := range groups {
			for _, r := range g {
				if r == rank {
					return i
				}
			}
		}
		return -1
	}
	a, b := side(src), side(dst)
	return a >= 0 && b >= 0 && a != b
}

// sendPlan evaluates the probabilistic rules for one message on (src,dst)
// under the link's seeded stream: the injected delay, whether to duplicate
// and whether to hold back for reordering. Rule evaluation order is fixed,
// and draws happen only on matching links, so the k-th message on a link
// sees the same fates in every run of the scenario.
func (m *Mesh) sendPlan(src, dst, nBytes int) (d time.Duration, dup, hold bool) {
	ls := m.link(src, dst)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var sec float64
	for i := range m.sc.Rules {
		r := &m.sc.Rules[i]
		switch r.Kind {
		case RuleDelay:
			if r.Link.Matches(src, dst) {
				sec += r.Alpha.Seconds() + r.Beta*float64(nBytes)
				if r.Jitter > 0 {
					sec += r.Jitter.Seconds() * ls.rng.Float64()
				}
			}
		case RuleBandwidth:
			if r.Link.Matches(src, dst) {
				sec += r.Beta * float64(nBytes)
			}
		case RuleLoss:
			if r.Link.Matches(src, dst) && ls.rng.Float64() < r.P {
				sec += r.Resend.Seconds()
			}
		case RuleDup:
			if r.Link.Matches(src, dst) && ls.rng.Float64() < r.P {
				dup = true
			}
		case RuleReorder:
			if r.Link.Matches(src, dst) && ls.rng.Float64() < r.P {
				hold = true
			}
		}
	}
	for i := range m.sc.Rules {
		r := &m.sc.Rules[i]
		if r.Rank < 0 || (r.Rank != src && r.Rank != dst) {
			continue
		}
		if m.backup[r.Rank] {
			// A warm backup clone duplicates this rank's shard; the clean
			// clone's stream wins the race, so the slowdown is masked.
			continue
		}
		var f float64
		switch r.Kind {
		case RuleStraggler:
			f = r.Factor
		case RuleDegrade:
			f = r.degradeFactor(int(m.steps[r.Rank].Load()) - 1)
		default:
			continue
		}
		if f <= 1 {
			continue
		}
		if floor := stragglerFloor.Seconds(); sec < floor {
			sec = floor
		}
		sec *= f
	}
	if hold {
		// A held duplicate would entangle the release with the swallow
		// protocol; duplication wins, reorder skips this message.
		hold = !dup
	}
	return time.Duration(sec * float64(time.Second)), dup, hold
}

// degradeFactor is the rule's slowdown at a 0-based step: 1 before Step,
// ramping linearly to Factor over Ramp steps, then holding. A negative Step
// means the ramp began in an earlier elastic segment and may already be at
// full factor.
func (r *Rule) degradeFactor(step int) float64 {
	if step < r.Step {
		return 1
	}
	if r.Ramp <= 0 {
		return r.Factor
	}
	frac := float64(step-r.Step+1) / float64(r.Ramp)
	if frac > 1 {
		frac = 1
	}
	return 1 + (r.Factor-1)*frac
}

// transport is one rank's fault-injecting view of the base transport.
type transport struct {
	m    *Mesh
	rank int
	base comm.Transport
}

func (t *transport) Rank() int { return t.base.Rank() }
func (t *transport) Size() int { return t.base.Size() }

// Close forwards to the base transport.
func (t *transport) Close() error { return t.base.Close() }

// SendIsBuffered forwards the base capability: injected delays block the
// sender but never require the receiver's participation, and a held message
// completes its Send immediately, so the wrapper preserves buffered
// semantics.
func (t *transport) SendIsBuffered() bool {
	if bt, ok := t.base.(comm.BufferedTransport); ok {
		return bt.SendIsBuffered()
	}
	return false
}

// AdvanceStep implements comm.Stepper: it advances this rank's step counter
// and fires any crash/stall rule whose step has arrived.
func (t *transport) AdvanceStep() {
	step := int(t.m.steps[t.rank].Add(1)) - 1
	for i := range t.m.sc.Rules {
		r := &t.m.sc.Rules[i]
		if r.Rank != t.rank || r.Step < 0 || step < r.Step {
			continue
		}
		switch r.Kind {
		case RuleCrash, RulePreempt:
			// A preemption is a crash at the transport level; only the elastic
			// supervisor treats the two differently (preempted ranks rejoin).
			if !t.m.crashed[t.rank].Swap(true) && t.m.kill != nil {
				t.m.kill(t.rank)
			}
		case RuleStall:
			t.m.stalled[t.rank].Store(true)
		}
	}
}

func (t *transport) Send(to, tag int, data []float32) error {
	m := t.m
	if m.crashed[t.rank].Load() {
		return &comm.PeerError{Rank: t.rank, Op: "send", Err: comm.ErrPeerDead}
	}
	if m.stalled[t.rank].Load() {
		// A stalled rank has gone dark: its sends vanish without error, so
		// only the peers' I/O deadlines can notice.
		return nil
	}
	if m.crashed[to].Load() {
		return &comm.PeerError{Rank: to, Op: "send", Err: comm.ErrPeerDead}
	}
	if err := m.linkDown(t.rank, to); err != nil {
		return err
	}
	d, dup, hold := m.sendPlan(t.rank, to, 4*len(data))
	if d > 0 {
		time.Sleep(d)
	}
	return m.deliver(t.base, t.rank, to, tag, data, dup, hold)
}

// deliver routes one message through the holdback machinery: same-tag sends
// wait for any held predecessor (per-tag FIFO is part of the Transport
// contract), held messages return immediately and are released a moment
// later, and everything else goes straight to rawSend.
func (m *Mesh) deliver(base comm.Transport, src, to, tag int, data []float32, dup, hold bool) error {
	ls := m.link(src, to)
	ls.mu.Lock()
	if ls.asyncErr != nil {
		err := ls.asyncErr
		ls.mu.Unlock()
		return err
	}
	for ls.heldTags[tag] > 0 {
		ls.cond.Wait()
	}
	if hold {
		cp := make([]float32, len(data))
		copy(cp, data)
		ls.heldTags[tag]++
		ls.mu.Unlock()
		m.wg.Add(1)
		go m.releaseHeld(ls, base, to, tag, cp)
		return nil
	}
	ls.mu.Unlock()
	return m.rawSend(base, to, tag, data, dup)
}

// releaseHeld ships a held message after the hold window. Errors stick to
// the link and surface on its next send — the message must not be silently
// lost, or the receiver would hang without a fault to blame.
func (m *Mesh) releaseHeld(ls *linkState, base comm.Transport, to, tag int, data []float32) {
	defer m.wg.Done()
	time.Sleep(holdWindow)
	err := m.rawSend(base, to, tag, data, false)
	ls.mu.Lock()
	if ls.heldTags[tag]--; ls.heldTags[tag] == 0 {
		delete(ls.heldTags, tag)
	}
	if err != nil && ls.asyncErr == nil {
		ls.asyncErr = err
	}
	ls.cond.Broadcast()
	ls.mu.Unlock()
}

// rawSend performs the base send, prefixing the meta header and emitting the
// duplicate frame when the mesh is headered. The duplicate is sent
// back-to-back with the original, so per-tag stream order stays intact.
func (m *Mesh) rawSend(base comm.Transport, to, tag int, data []float32, dup bool) error {
	if !m.headered {
		return base.Send(to, tag, data)
	}
	bp := m.pool.Get().(*[]float32)
	defer m.pool.Put(bp)
	if cap(*bp) < len(data)+1 {
		*bp = make([]float32, len(data)+1)
	}
	buf := (*bp)[:len(data)+1]
	meta := uint32(0)
	if dup {
		meta = 1
	}
	buf[0] = comm.Float32FromIndex(meta)
	copy(buf[1:], data)
	if err := base.Send(to, tag, buf); err != nil {
		return err
	}
	if dup {
		return base.Send(to, tag, buf)
	}
	return nil
}

func (t *transport) Recv(from, tag int, data []float32) error {
	m := t.m
	if m.crashed[t.rank].Load() {
		return &comm.PeerError{Rank: t.rank, Op: "recv", Err: comm.ErrPeerDead}
	}
	if !m.headered {
		return t.base.Recv(from, tag, data)
	}
	bp := m.pool.Get().(*[]float32)
	defer m.pool.Put(bp)
	if cap(*bp) < len(data)+1 {
		*bp = make([]float32, len(data)+1)
	}
	buf := (*bp)[:len(data)+1]
	if err := t.base.Recv(from, tag, buf); err != nil {
		return err
	}
	dup := comm.Float32ToIndex(buf[0]) == 1
	copy(data, buf[1:])
	if dup {
		// Swallow the duplicate frame (same tag, sent immediately after the
		// original); its meta byte is ignored.
		return t.base.Recv(from, tag, buf)
	}
	return nil
}

// active reports whether the scenario actually changes anything — false for
// a nil scenario or an empty rule set with no deadline, in which case
// GroupRunner skips the wrapper entirely and the fault-free hot path keeps
// its zero-allocation steady state.
func (s *Scenario) active() bool {
	return s != nil && (len(s.Rules) > 0 || s.Deadline > 0)
}

// GroupRunner returns a cluster.Config.GroupRunner that runs the body under
// scenario sc (nil: no faults) over the inproc fabric (tcp=false) or a
// loopback TCP mesh (tcp=true). It builds the fabric with the scenario's
// deadline as the I/O timeout; when the scenario is active it wraps every
// transport in the mesh's fault rules and installs the scenario's retry
// policy. comm.Launch runs the ranks, so the first failure tears the fabric
// down and per-rank errors come back joined and rank-labelled. A crash rule
// kills the rank on the inproc fabric and closes its transport over TCP, so
// peers observe real connection failures.
func GroupRunner(sc *Scenario, tcp bool) func(size int, body func(*comm.Communicator) error) error {
	return func(size int, body func(*comm.Communicator) error) error {
		var deadline time.Duration
		if sc != nil {
			deadline = sc.Deadline
		}
		ts := make([]comm.Transport, size)
		var teardown func()
		var kill func(rank int)
		if tcp {
			mesh, shutdown, err := tcpnet.NewLocalMeshConfig(size, tcpnet.Config{IOTimeout: deadline})
			if err != nil {
				return err
			}
			for r, t := range mesh {
				ts[r] = t
			}
			teardown, kill = shutdown, func(rank int) { _ = mesh[rank].Close() }
		} else {
			f := comm.NewInprocFabric(size)
			if deadline > 0 {
				f.SetIOTimeout(deadline)
			}
			for r := range ts {
				ts[r] = f.Transport(r)
			}
			teardown, kill = f.Shutdown, f.Kill
		}
		defer teardown()
		var m *Mesh
		if sc.active() {
			m = NewMesh(sc, size, kill)
			defer m.Stop()
		}
		cs := make([]*comm.Communicator, size)
		for r, t := range ts {
			if m != nil {
				t = m.Transport(r, t)
			}
			cs[r] = comm.NewCommunicator(t)
			if m != nil {
				cs[r].SetRetry(sc.Retry)
			}
		}
		return comm.Launch(cs, teardown, body)
	}
}
