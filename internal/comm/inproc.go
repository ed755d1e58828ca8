package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// inprocMsg carries one tagged payload between two ranks. data is a view of
// *buf (a recycled transit buffer): the receiver copies data into the
// caller's destination and returns buf to the fabric pool.
type inprocMsg struct {
	tag  int
	data []float32
	buf  *[]float32
}

// InprocFabric is an in-process point-to-point fabric: a matrix of buffered
// channels, one per ordered (src, dst) pair. It is the default transport for
// experiments — deterministic, allocation-free in steady state, and it
// exercises exactly the same collective code paths as the TCP transport.
//
// Transit buffers are pooled: Send clones the caller's data (the Transport
// contract lets the caller reuse its buffer immediately) into a buffer drawn
// from the fabric-wide pool, and Recv — which always has the caller's
// destination in hand — copies straight into that destination and recycles
// the transit buffer. After warm-up the pool's buffers have grown to the
// high-water message size and the fabric stops touching the allocator.
type InprocFabric struct {
	size  int
	chans [][]chan inprocMsg // chans[src][dst]
	match [][]pairMatch      // match[src][dst]: receive-side tag matcher
	pool  sync.Pool          // *[]float32 transit buffers
	done  chan struct{}
	once  sync.Once

	// ioTimeout, when > 0, bounds each Send/Recv; expiry returns a
	// *PeerError{Timeout: true}. Zero (the default) blocks forever and keeps
	// the steady-state path timer-free and allocation-free.
	ioTimeout time.Duration
	// dead[r] is closed by Kill(r): every operation touching rank r — its
	// own and its peers' — fails with *PeerError wrapping ErrPeerDead.
	dead []deadFlag
}

// deadFlag is one rank's kill switch.
type deadFlag struct {
	once sync.Once
	ch   chan struct{}
}

// pairMatch is the receive-side tag matcher for one ordered (src, dst) pair.
// Concurrent collectives run in disjoint tag blocks but share the pair's
// FIFO channel, so a receiver may pull a message destined for a different
// in-flight operation. Matching follows the classic MPI stash-and-wake
// shape: exactly one receiver at a time is the puller (drains the channel);
// messages for other tags are stashed in arrival order and the cond wakes
// the other receivers to re-scan. With a single outstanding operation — the
// Deterministic mode — the stash stays empty and the pull is the only hop.
type pairMatch struct {
	mu      sync.Mutex
	cond    sync.Cond
	pulling bool
	pending []inprocMsg // stashed out-of-tag messages, arrival order
}

// inprocDepth bounds in-flight messages per ordered pair. The collectives
// never have more than a couple outstanding, but sparse allgatherv interleaves
// a length exchange with the payload ring, so leave headroom.
const inprocDepth = 16

// NewInprocFabric creates a fabric for size ranks.
func NewInprocFabric(size int) *InprocFabric {
	if size <= 0 {
		panic("comm: fabric size must be positive")
	}
	f := &InprocFabric{size: size, done: make(chan struct{})}
	f.pool.New = func() any { return new([]float32) }
	f.dead = make([]deadFlag, size)
	for r := range f.dead {
		f.dead[r].ch = make(chan struct{})
	}
	f.chans = make([][]chan inprocMsg, size)
	f.match = make([][]pairMatch, size)
	for s := range f.chans {
		f.chans[s] = make([]chan inprocMsg, size)
		f.match[s] = make([]pairMatch, size)
		for d := range f.chans[s] {
			f.chans[s][d] = make(chan inprocMsg, inprocDepth)
			pm := &f.match[s][d]
			pm.cond.L = &pm.mu
		}
	}
	return f
}

// Size returns the number of ranks.
func (f *InprocFabric) Size() int { return f.size }

// Shutdown unblocks all pending and future operations with ErrFabricClosed.
func (f *InprocFabric) Shutdown() {
	f.once.Do(func() { close(f.done) })
}

// SetIOTimeout bounds every subsequent Send and Recv on the fabric; an
// expired operation returns a *PeerError with Timeout set. Call before
// handing transports out. Zero (the default) restores unbounded blocking.
func (f *InprocFabric) SetIOTimeout(d time.Duration) { f.ioTimeout = d }

// Kill marks a rank dead, modelling a process crash: the rank's own pending
// and future operations, and every peer operation addressed to it, fail with
// a *PeerError wrapping ErrPeerDead. Unlike Shutdown the rest of the fabric
// keeps working, so surviving ranks observe a peer-scoped failure rather
// than a fabric-wide teardown.
func (f *InprocFabric) Kill(rank int) {
	if rank < 0 || rank >= f.size {
		return
	}
	f.dead[rank].once.Do(func() { close(f.dead[rank].ch) })
}

// killed reports whether Kill(rank) has been called.
func (f *InprocFabric) killed(rank int) bool {
	select {
	case <-f.dead[rank].ch:
		return true
	default:
		return false
	}
}

// ErrFabricClosed is returned by transport operations after Shutdown.
var ErrFabricClosed = errors.New("comm: fabric closed")

// Transport returns the endpoint for one rank.
func (f *InprocFabric) Transport(rank int) Transport {
	if rank < 0 || rank >= f.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, f.size))
	}
	return &inprocTransport{f: f, rank: rank}
}

// Communicators returns one ready Communicator per rank.
func (f *InprocFabric) Communicators() []*Communicator {
	cs := make([]*Communicator, f.size)
	for i := range cs {
		cs[i] = NewCommunicator(f.Transport(i))
	}
	return cs
}

type inprocTransport struct {
	f    *InprocFabric
	rank int
}

func (t *inprocTransport) Rank() int { return t.rank }
func (t *inprocTransport) Size() int { return t.f.size }

// SendIsBuffered implements BufferedTransport: sends enqueue on the
// per-pair channel (depth inprocDepth) without waiting for the receiver, so
// the collectives' sendRecv can issue them inline.
func (t *inprocTransport) SendIsBuffered() bool { return true }

func (t *inprocTransport) Send(to, tag int, data []float32) error {
	if to < 0 || to >= t.f.size {
		return fmt.Errorf("comm: send to invalid rank %d", to)
	}
	// A closed fabric must fail sends deterministically even when buffer
	// space remains (select would otherwise pick randomly among ready cases).
	select {
	case <-t.f.done:
		return ErrFabricClosed
	default:
	}
	if t.f.killed(t.rank) {
		return &PeerError{Rank: t.rank, Op: "send", Err: ErrPeerDead}
	}
	if t.f.killed(to) {
		return &PeerError{Rank: to, Op: "send", Err: ErrPeerDead}
	}
	// Copy: the caller may reuse the buffer as soon as Send returns. The
	// transit buffer comes from the fabric pool and goes back to it when
	// the matching Recv has copied into its destination.
	bp := t.f.pool.Get().(*[]float32)
	if cap(*bp) < len(data) {
		*bp = make([]float32, len(data))
	}
	cp := (*bp)[:len(data)]
	copy(cp, data)
	// The timer exists only when an I/O deadline is configured; the default
	// path keeps its nil channel (a nil select case never fires) and stays
	// off the allocator.
	var timeoutC <-chan time.Time
	if t.f.ioTimeout > 0 {
		tm := time.NewTimer(t.f.ioTimeout)
		defer tm.Stop()
		timeoutC = tm.C
	}
	select {
	case t.f.chans[t.rank][to] <- inprocMsg{tag: tag, data: cp, buf: bp}:
		return nil
	case <-t.f.done:
		t.f.pool.Put(bp)
		return ErrFabricClosed
	case <-t.f.dead[to].ch:
		t.f.pool.Put(bp)
		return &PeerError{Rank: to, Op: "send", Err: ErrPeerDead}
	case <-timeoutC:
		t.f.pool.Put(bp)
		return &PeerError{Rank: to, Op: "send", Timeout: true, Err: errSendBufferFull}
	}
}

// errSendBufferFull explains an inproc send deadline expiry: the per-pair
// channel stayed full for the whole window, i.e. the receiver stopped
// draining.
var errSendBufferFull = errors.New("comm: peer stopped draining (send buffer full)")

// deliver copies a matched message into the destination and recycles the
// transit buffer.
func (t *inprocTransport) deliver(from, tag int, m inprocMsg, data []float32) error {
	defer t.f.pool.Put(m.buf)
	if len(m.data) != len(data) {
		return fmt.Errorf("comm: length mismatch recv(%d<-%d) tag %d: got %d want %d",
			t.rank, from, tag, len(m.data), len(data))
	}
	copy(data, m.data)
	return nil
}

func (t *inprocTransport) Recv(from, tag int, data []float32) error {
	if from < 0 || from >= t.f.size {
		return fmt.Errorf("comm: recv from invalid rank %d", from)
	}
	if t.f.killed(t.rank) {
		return &PeerError{Rank: t.rank, Op: "recv", Err: ErrPeerDead}
	}
	// Messages already in flight from a now-dead peer are still delivered
	// (the data left the peer before it died); only the blocking pull below
	// observes the death. Like Send, the timer exists only under a deadline.
	var timeoutC <-chan time.Time
	if t.f.ioTimeout > 0 {
		tm := time.NewTimer(t.f.ioTimeout)
		defer tm.Stop()
		timeoutC = tm.C
	}
	pm := &t.f.match[from][t.rank]
	pm.mu.Lock()
	for {
		// First satisfy from the stash (arrival order ⇒ per-tag FIFO).
		for i := range pm.pending {
			if pm.pending[i].tag == tag {
				m := pm.pending[i]
				pm.pending = append(pm.pending[:i], pm.pending[i+1:]...)
				pm.mu.Unlock()
				return t.deliver(from, tag, m, data)
			}
		}
		if pm.pulling {
			// Someone else is draining the channel; they will stash or
			// take what arrives and wake us to re-scan.
			pm.cond.Wait()
			continue
		}
		pm.pulling = true
		pm.mu.Unlock()
		select {
		case m := <-t.f.chans[from][t.rank]:
			pm.mu.Lock()
			pm.pulling = false
			if m.tag == tag {
				pm.cond.Broadcast()
				pm.mu.Unlock()
				return t.deliver(from, tag, m, data)
			}
			pm.pending = append(pm.pending, m)
			pm.cond.Broadcast()
			// Loop: re-scan the stash (a racing receiver may have stashed
			// our tag while we pulled) or become the puller again.
		case <-t.f.done:
			pm.mu.Lock()
			pm.pulling = false
			pm.cond.Broadcast()
			pm.mu.Unlock()
			return ErrFabricClosed
		case <-t.f.dead[from].ch:
			pm.mu.Lock()
			pm.pulling = false
			pm.cond.Broadcast()
			pm.mu.Unlock()
			return &PeerError{Rank: from, Op: "recv", Err: ErrPeerDead}
		case <-t.f.dead[t.rank].ch:
			pm.mu.Lock()
			pm.pulling = false
			pm.cond.Broadcast()
			pm.mu.Unlock()
			return &PeerError{Rank: t.rank, Op: "recv", Err: ErrPeerDead}
		case <-timeoutC:
			pm.mu.Lock()
			pm.pulling = false
			pm.cond.Broadcast()
			pm.mu.Unlock()
			return &PeerError{Rank: from, Op: "recv", Timeout: true, Err: errRecvNoMessage}
		}
	}
}

// errRecvNoMessage explains an inproc recv deadline expiry: no frame from
// the peer arrived within the window.
var errRecvNoMessage = errors.New("comm: no message within deadline")

func (t *inprocTransport) Close() error { return nil }

// RunGroup is the in-process "mpirun": it builds a fresh inproc fabric of
// the given size and hands its communicators to Launch, with the fabric's
// shutdown as the fail-fast teardown. The experiments and many tests run
// their groups through it.
func RunGroup(size int, body func(c *Communicator) error) error {
	f := NewInprocFabric(size)
	defer f.Shutdown()
	return Launch(f.Communicators(), f.Shutdown, body)
}
