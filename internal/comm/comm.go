package comm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"a2sgd/internal/tensor"
)

// Transport moves float32 payloads between ranks. Implementations must allow
// concurrent Send and Recv from the same rank (the collectives overlap them)
// and must preserve per-(src,dst) message ordering. Payload element values
// are moved bit-exactly; callers may bit-cast integers through
// math.Float32frombits to ship index data.
type Transport interface {
	// Rank returns this endpoint's 0-based rank.
	Rank() int
	// Size returns the number of ranks in the group.
	Size() int
	// Send transmits data to rank `to`. The buffer may be reused by the
	// caller immediately after Send returns.
	Send(to, tag int, data []float32) error
	// Recv fills data with the next message from rank `from` carrying tag.
	// The message length must equal len(data).
	Recv(from, tag int, data []float32) error
	// Close releases transport resources. Collectives must not be used
	// afterwards.
	Close() error
}

// BufferedTransport is the optional capability of transports whose Send
// enqueues without waiting for the receiver (bounded buffering comfortably
// above the couple of in-flight messages the collectives keep per ordered
// pair). On such transports sendRecv issues the send inline before the
// receive — no helper goroutine, no allocation — which is what makes the
// steady-state inproc collectives allocation-free. Rendezvous transports
// (TCP: a large send blocks until the peer drains it) must not implement it;
// they keep the overlapped send goroutine.
type BufferedTransport interface {
	SendIsBuffered() bool
}

// Traffic aggregates the communication volume observed by one rank.
type Traffic struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
}

// Communicator couples a Transport with traffic accounting and provides the
// collectives. The intended model is one Communicator per worker goroutine,
// mirroring MPI: blocking collectives are not safe for concurrent use, but
// the owner may overlap computation with communication through posted
// operations (Post), which execute on the communicator's progress workers —
// serially, in posting order, unless SetConcurrency adds contexts.
type Communicator struct {
	t         Transport
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	msgsSent  atomic.Int64
	msgsRecv  atomic.Int64

	// asyncMu guards the nonblocking machinery: the per-context request
	// queues, the pooled-request freelist, the posting sequence counter and
	// the context communicators built by SetConcurrency (ctx.go). Empty
	// ctxComms/ctxQueues mean concurrency 1 (queues lazily sized on first
	// post).
	asyncMu   sync.Mutex
	ctxComms  []*Communicator
	ctxQueues []reqQueue
	postSeq   uint64
	freeReqs  *asyncReq

	// scratch is the reusable reduction buffer of the blocking collectives
	// (ring segments, recursive-doubling partner data, binomial reduce).
	// Blocking collectives are not concurrent on one communicator (the MPI
	// model above), so a single buffer grown to the high-water mark makes
	// the steady-state collectives allocation-free.
	scratch []float32
	// sendErr carries the send half of sendRecv back from its goroutine;
	// one persistent channel instead of a per-call allocation.
	sendErr chan error
	// buffered caches the transport's BufferedTransport capability.
	buffered bool
	// barOne/barBuf are Barrier's one-element token buffers.
	barOne, barBuf [1]float32

	// retry bounds the automatic resend of transient peer failures
	// (failure.go); the zero value fails fast on the first error.
	retry RetryPolicy

	// sendObs, when non-nil, receives per-send timing beacons (observe.go).
	sendObs func(to, nBytes int, sec float64)

	// children are the derived communicators (Split groups, concurrency
	// contexts); their traffic is folded into this communicator's Traffic.
	children []*Communicator
	// hier, when non-nil, switches the core collectives to the two-level
	// (intra-node + inter-node) schedules of hierarchy.go.
	hier *hierarchy
}

// NewCommunicator wraps a transport.
func NewCommunicator(t Transport) *Communicator {
	c := &Communicator{t: t, sendErr: make(chan error, 1)}
	if bt, ok := t.(BufferedTransport); ok {
		c.buffered = bt.SendIsBuffered()
	}
	return c
}

// getScratch returns the communicator-owned scratch grown to at least n
// elements. Callers are the blocking collectives, which never overlap on one
// communicator, so the buffer is never aliased by two operations.
func (c *Communicator) getScratch(n int) []float32 {
	if cap(c.scratch) < n {
		c.scratch = make([]float32, n)
	}
	return c.scratch[:n]
}

// Rank returns this communicator's rank.
func (c *Communicator) Rank() int { return c.t.Rank() }

// Size returns the group size.
func (c *Communicator) Size() int { return c.t.Size() }

// Close closes the underlying transport.
func (c *Communicator) Close() error { return c.t.Close() }

// Traffic returns a snapshot of the accumulated counters, including the
// traffic of every derived communicator (Split groups — the hierarchical
// collectives run entirely on those — and concurrency contexts).
func (c *Communicator) Traffic() Traffic {
	t := Traffic{
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
	}
	for _, ch := range c.children {
		ct := ch.Traffic()
		t.BytesSent += ct.BytesSent
		t.BytesRecv += ct.BytesRecv
		t.MsgsSent += ct.MsgsSent
		t.MsgsRecv += ct.MsgsRecv
	}
	return t
}

// ResetTraffic zeroes the counters (between experiment phases), including
// those of derived communicators.
func (c *Communicator) ResetTraffic() {
	c.bytesSent.Store(0)
	c.bytesRecv.Store(0)
	c.msgsSent.Store(0)
	c.msgsRecv.Store(0)
	for _, ch := range c.children {
		ch.ResetTraffic()
	}
}

func (c *Communicator) send(to, tag int, data []float32) error {
	obs := c.sendObs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	err := c.t.Send(to, tag, data)
	// Transient errors promise the operation had no stream effect, so a
	// verbatim resend is safe; back off exponentially up to retry.Attempts.
	for a := 0; err != nil && a+1 < c.retry.Attempts && IsTransient(err); a++ {
		c.retry.sleep(a)
		err = c.t.Send(to, tag, data)
	}
	if err != nil {
		return err
	}
	if obs != nil {
		// A derived communicator's peer labels are local; beacons name
		// global ranks.
		gto := to
		if g, ok := c.t.(*groupTransport); ok {
			gto = g.GlobalRank(to)
		}
		obs(gto, 4*len(data), time.Since(t0).Seconds())
	}
	c.bytesSent.Add(int64(4 * len(data)))
	c.msgsSent.Add(1)
	return nil
}

func (c *Communicator) recv(from, tag int, data []float32) error {
	err := c.t.Recv(from, tag, data)
	for a := 0; err != nil && a+1 < c.retry.Attempts && IsTransient(err); a++ {
		c.retry.sleep(a)
		err = c.t.Recv(from, tag, data)
	}
	if err != nil {
		return err
	}
	c.bytesRecv.Add(int64(4 * len(data)))
	c.msgsRecv.Add(1)
	return nil
}

// sendAsync runs one send and reports on the persistent sendErr channel. It
// is a named method, not a closure, so the `go` statement in sendRecv copies
// its arguments instead of heap-allocating a capture.
func (c *Communicator) sendAsync(to, tag int, data []float32) {
	c.sendErr <- c.send(to, tag, data)
}

// sendRecv overlaps one send and one receive, as every ring step requires;
// doing them sequentially would deadlock on unbuffered transports. The
// goroutine hand-off reuses the communicator's sendErr channel — blocking
// collectives never overlap on one communicator, so at most one send is in
// flight — keeping the per-step cost allocation-free.
func (c *Communicator) sendRecv(to, tagS int, sendBuf []float32, from, tagR int, recvBuf []float32) error {
	if c.buffered {
		// Buffered transport: the send enqueues without waiting for the
		// receiver, so issuing it inline is deadlock-free and avoids the
		// goroutine (and its argument-capture allocation) entirely.
		if err := c.send(to, tagS, sendBuf); err != nil {
			return err
		}
		return c.recv(from, tagR, recvBuf)
	}
	go c.sendAsync(to, tagS, sendBuf)
	rerr := c.recv(from, tagR, recvBuf)
	serr := <-c.sendErr
	if serr != nil {
		return serr
	}
	return rerr
}

// ErrLengthMismatch is returned when ranks disagree on collective sizes.
var ErrLengthMismatch = errors.New("comm: collective buffer length mismatch")

// tag bases keep concurrent collectives from crossing wires when several run
// back to back in one training step.
const (
	tagRingRS = 1 << 16 // ring reduce-scatter
	tagRingAG = 2 << 16 // ring allgather phase
	tagRecDbl = 3 << 16
	tagBcast  = 4 << 16
	tagReduce = 5 << 16
	tagGather = 6 << 16
	tagAGV    = 7 << 16
	tagBar    = 8 << 16
)

// Float32FromIndex bit-casts a non-negative index so that it can travel in a
// float32 payload, and Float32ToIndex recovers it. Sparse exchange (Top-K /
// Gaussian-K allgather) uses these helpers.
func Float32FromIndex(i uint32) float32 { return math.Float32frombits(i) }

// Float32ToIndex recovers an index stored with Float32FromIndex.
func Float32ToIndex(f float32) uint32 { return math.Float32bits(f) }

func segBounds(n, parts, i int) (lo, hi int) {
	lo = i * n / parts
	hi = (i + 1) * n / parts
	return lo, hi
}

// AllreduceAlgorithm selects the allreduce implementation.
type AllreduceAlgorithm int

// Allreduce algorithm choices.
const (
	// AlgoAuto picks recursive doubling for short vectors (latency bound)
	// and ring for long ones (bandwidth bound), the standard MPI heuristic.
	AlgoAuto AllreduceAlgorithm = iota
	// AlgoRing forces the bandwidth-optimal ring algorithm.
	AlgoRing
	// AlgoRecursiveDoubling forces the latency-optimal algorithm.
	AlgoRecursiveDoubling
)

// autoCutover is the vector length below which recursive doubling wins.
const autoCutover = 4096

// AllreduceSum replaces v on every rank with the elementwise sum across all
// ranks. All ranks must pass equal-length vectors and the same algorithm.
// On a communicator with a two-level topology (SetTopology) the sum runs the
// hierarchical schedule; algo then selects the inter-node leader allreduce.
func (c *Communicator) AllreduceSum(v []float32, algo AllreduceAlgorithm) error {
	return c.allreduce(v, algo, 1)
}

// AllreduceMean is AllreduceSum followed by division by the group size —
// exactly the Allreduce(·, average) of the paper's Algorithm 1, line 5. The
// result is bitwise AllreduceSum's followed by tensor.Scale(v, 1/P).
func (c *Communicator) AllreduceMean(v []float32, algo AllreduceAlgorithm) error {
	return c.allreduce(v, algo, 1/float32(c.Size()))
}

// allreduce is the one dispatch behind AllreduceSum (scale 1) and
// AllreduceMean (scale 1/P): the result is the sum times scale. The flat
// ring folds the scale into its last reduce-scatter add; recursive doubling
// and the hierarchical schedule sum first and scale the whole vector after.
func (c *Communicator) allreduce(v []float32, algo AllreduceAlgorithm, scale float32) error {
	if c.Size() == 1 {
		return nil
	}
	if c.hier == nil && (algo == AlgoRing || algo == AlgoAuto && len(v) >= autoCutover) {
		return c.ringAllreduce(v, scale)
	}
	var err error
	if c.hier != nil {
		err = c.hierAllreduceSum(v, algo)
	} else {
		err = c.recDoublingAllreduce(v)
	}
	if err == nil && scale != 1 {
		tensor.Scale(v, scale)
	}
	return err
}

// scaleBlock is the element count reduceScale adds and then scales per
// pass: 16 KiB, so the scale rereads the block from L1.
const scaleBlock = 4096

// reduceScale is dst = (dst + src)·s, block by block. Each element still
// takes one float32 add and one float32 multiply, so the bits are those of
// addInto followed by tensor.Scale over the whole slice.
func reduceScale(dst, src []float32, s float32) {
	for lo := 0; lo < len(dst); lo += scaleBlock {
		hi := min(lo+scaleBlock, len(dst))
		addInto(dst[lo:hi], src[lo:hi])
		tensor.Scale(dst[lo:hi], s)
	}
}

// ringAllreduce is the classic bandwidth-optimal two-phase algorithm:
// a reduce-scatter of P-1 steps followed by an allgather of P-1 steps, each
// moving n/P elements. Total traffic per rank: 2n(P-1)/P elements. The last
// reduce-scatter step completes the segment this rank owns; it is scaled
// there (unless scale is 1), so the allgather ships final values.
func (c *Communicator) ringAllreduce(v []float32, scale float32) error {
	p, r := c.Size(), c.Rank()
	n := len(v)
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	buf := c.getScratch((n+p-1)/p + 1)

	// Phase 1: reduce-scatter. After step s, rank r holds the partial sum
	// of segment (r-s-1) mod p; after step p-2, the full sum of segment
	// (r+1) mod p, the one it owns.
	for s := 0; s < p-1; s++ {
		sendSeg := (r - s + p) % p
		recvSeg := (r - s - 1 + p) % p
		slo, shi := segBounds(n, p, sendSeg)
		rlo, rhi := segBounds(n, p, recvSeg)
		rb := buf[:rhi-rlo]
		if err := c.sendRecv(next, tagRingRS+s, v[slo:shi], prev, tagRingRS+s, rb); err != nil {
			return err
		}
		if s == p-2 && scale != 1 {
			reduceScale(v[rlo:rhi], rb, scale)
		} else {
			addInto(v[rlo:rhi], rb)
		}
	}
	// Phase 2: allgather. Rank r owns the fully reduced segment (r+1) mod p.
	for s := 0; s < p-1; s++ {
		sendSeg := (r + 1 - s + p) % p
		recvSeg := (r - s + p) % p
		slo, shi := segBounds(n, p, sendSeg)
		rlo, rhi := segBounds(n, p, recvSeg)
		if err := c.sendRecv(next, tagRingAG+s, v[slo:shi], prev, tagRingAG+s, v[rlo:rhi]); err != nil {
			return err
		}
	}
	return nil
}

// recDoublingAllreduce implements the MPICH recursive-doubling algorithm
// with the standard fold for non-power-of-two group sizes.
func (c *Communicator) recDoublingAllreduce(v []float32) error {
	p, r := c.Size(), c.Rank()
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2
	buf := c.getScratch(len(v))

	// Fold: the first 2*rem ranks pair up; odd ones ship data to even ones
	// and sit out, leaving a power-of-two active set.
	newRank := -1
	switch {
	case r < 2*rem && r%2 == 1:
		if err := c.send(r-1, tagRecDbl, v); err != nil {
			return err
		}
	case r < 2*rem && r%2 == 0:
		if err := c.recv(r+1, tagRecDbl, buf); err != nil {
			return err
		}
		addInto(v, buf)
		newRank = r / 2
	default:
		newRank = r - rem
	}

	if newRank >= 0 {
		for mask := 1; mask < pow2; mask <<= 1 {
			partnerNew := newRank ^ mask
			partner := partnerNew + rem
			if partnerNew < rem {
				partner = partnerNew * 2
			}
			if err := c.sendRecv(partner, tagRecDbl+mask, v, partner, tagRecDbl+mask, buf); err != nil {
				return err
			}
			addInto(v, buf)
		}
	}

	// Unfold: even fold-ranks return the result to their odd partner.
	switch {
	case r < 2*rem && r%2 == 1:
		if err := c.recv(r-1, tagRecDbl+1<<15, v); err != nil {
			return err
		}
	case r < 2*rem && r%2 == 0:
		if err := c.send(r+1, tagRecDbl+1<<15, v); err != nil {
			return err
		}
	}
	return nil
}

// addInto is the collectives' reduction kernel: elementwise dst += src,
// SIMD-dispatched through tensor.Add (bitwise identical to the scalar loop,
// so reduction results do not depend on the build).
func addInto(dst, src []float32) {
	tensor.Add(dst, src)
}

// Allgather concatenates each rank's equal-size contribution into out,
// which must have length len(in)*Size(). Rank i's block lands at offset
// i*len(in). Ring algorithm: P-1 steps of len(in) elements. With a
// two-level topology the exchange runs the hierarchical schedule instead.
func (c *Communicator) Allgather(in, out []float32) error {
	if len(out) != len(in)*c.Size() {
		return ErrLengthMismatch
	}
	if c.hier != nil && c.Size() > 1 {
		return c.hierAllgather(in, out)
	}
	return c.flatAllgather(in, out)
}

// flatAllgather is the single-level ring allgather; Split relies on it to
// exchange colors before any hierarchy exists.
func (c *Communicator) flatAllgather(in, out []float32) error {
	p, r := c.Size(), c.Rank()
	if len(out) != len(in)*p {
		return ErrLengthMismatch
	}
	copy(out[r*len(in):(r+1)*len(in)], in)
	if p == 1 {
		return nil
	}
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	for s := 0; s < p-1; s++ {
		sendBlk := (r - s + p) % p
		recvBlk := (r - s - 1 + p) % p
		sb := out[sendBlk*len(in) : (sendBlk+1)*len(in)]
		rb := out[recvBlk*len(in) : (recvBlk+1)*len(in)]
		if err := c.sendRecv(next, tagGather+s, sb, prev, tagGather+s, rb); err != nil {
			return err
		}
	}
	return nil
}

// AllgatherV gathers variable-length contributions from every rank. It first
// allgathers the lengths (one element each), then runs a ring over the
// variable blocks. Returns the concatenation in rank order plus each rank's
// length. This is the exchange primitive Gaussian-K sparsification uses
// (its selected count varies per rank) and the one the paper's §4.4 credits
// for Gaussian-K's iteration-time edge on fast networks. Each call allocates
// fresh result buffers; the hot paths use AllgatherVInto with a persistent
// scratch instead.
func (c *Communicator) AllgatherV(in []float32) (out []float32, lens []int, err error) {
	var sc AllgatherVScratch
	return c.AllgatherVInto(in, &sc)
}

// AllgatherVScratch holds the reusable buffers of one AllgatherVInto call
// site: the length-exchange buffer, the decoded lengths/offsets and the
// gathered payload. Zero value is ready; buffers grow to the high-water
// mark and are then reused, so a steady-state exchange stays off the
// allocator.
type AllgatherVScratch struct {
	lenBuf []float32
	my     [1]float32
	lens   []int
	offs   []int
	out    []float32
}

// growInts is growF32's []int twin for the scratch length/offset buffers.
func growInts(buf *[]int, m int) []int {
	if cap(*buf) < m {
		*buf = make([]int, m)
	}
	*buf = (*buf)[:m]
	return *buf
}

// AllgatherVInto is AllgatherV into caller-owned scratch: the returned
// slices alias sc's buffers and are valid until the next call with the same
// scratch. On a flat communicator the call is allocation-free in steady
// state; with a two-level topology it delegates to the (allocating)
// hierarchical schedule, so callers keep a single code path either way.
func (c *Communicator) AllgatherVInto(in []float32, sc *AllgatherVScratch) (out []float32, lens []int, err error) {
	if c.hier != nil && c.Size() > 1 {
		return c.hierAllgatherV(in)
	}
	p, r := c.Size(), c.Rank()
	lenBuf := growF32Comm(&sc.lenBuf, p)
	sc.my[0] = Float32FromIndex(uint32(len(in)))
	if err := c.Allgather(sc.my[:], lenBuf); err != nil {
		return nil, nil, err
	}
	lens = growInts(&sc.lens, p)
	offs := growInts(&sc.offs, p+1)
	offs[0] = 0
	for i := 0; i < p; i++ {
		lens[i] = int(Float32ToIndex(lenBuf[i]))
		offs[i+1] = offs[i] + lens[i]
	}
	out = growF32Comm(&sc.out, offs[p])
	copy(out[offs[r]:offs[r+1]], in)
	if p == 1 {
		return out, lens, nil
	}
	next := (r + 1) % p
	prev := (r - 1 + p) % p
	for s := 0; s < p-1; s++ {
		sendBlk := (r - s + p) % p
		recvBlk := (r - s - 1 + p) % p
		sb := out[offs[sendBlk]:offs[sendBlk+1]]
		rb := out[offs[recvBlk]:offs[recvBlk+1]]
		if err := c.sendRecv(next, tagAGV+s, sb, prev, tagAGV+s, rb); err != nil {
			return nil, nil, err
		}
	}
	return out, lens, nil
}

// growF32Comm is the comm-local cap-check-and-grow idiom (compress has its
// own twin; the packages do not import each other's internals).
func growF32Comm(buf *[]float32, m int) []float32 {
	if cap(*buf) < m {
		*buf = make([]float32, m)
	}
	*buf = (*buf)[:m]
	return *buf
}

// Broadcast distributes root's v to every rank (binomial tree, ⌈log2 P⌉
// rounds).
func (c *Communicator) Broadcast(v []float32, root int) error {
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	if root < 0 || root >= p {
		return fmt.Errorf("comm: broadcast root %d out of range", root)
	}
	if c.hier != nil {
		return c.hierBroadcast(v, root)
	}
	// Work in a rotated space where root is rank 0.
	vr := (r - root + p) % p
	mask := 1
	for mask < p {
		if vr < mask {
			partner := vr | mask
			if partner < p {
				if err := c.send((partner+root)%p, tagBcast+mask, v); err != nil {
					return err
				}
			}
		} else if vr < mask<<1 {
			if err := c.recv((vr-mask+root)%p, tagBcast+mask, v); err != nil {
				return err
			}
		}
		mask <<= 1
	}
	return nil
}

// Reduce sums every rank's v into root's v (binomial tree). Non-root ranks'
// buffers are left in an unspecified partially-reduced state, like MPI.
func (c *Communicator) Reduce(v []float32, root int) error {
	p, r := c.Size(), c.Rank()
	if p == 1 {
		return nil
	}
	if root < 0 || root >= p {
		return fmt.Errorf("comm: reduce root %d out of range", root)
	}
	vr := (r - root + p) % p
	buf := c.getScratch(len(v))
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			return c.send((vr-mask+root)%p, tagReduce+mask, v)
		}
		partner := vr | mask
		if partner < p {
			if err := c.recv((partner+root)%p, tagReduce+mask, buf); err != nil {
				return err
			}
			addInto(v, buf)
		}
		mask <<= 1
	}
	return nil
}

// Barrier blocks until every rank has entered it (dissemination algorithm,
// ⌈log2 P⌉ rounds of 1-element messages).
func (c *Communicator) Barrier() error {
	p, r := c.Size(), c.Rank()
	c.barOne[0], c.barBuf[0] = 1, 0
	for round, dist := 0, 1; dist < p; round, dist = round+1, dist*2 {
		to := (r + dist) % p
		from := (r - dist + p) % p
		if err := c.sendRecv(to, tagBar+round, c.barOne[:], from, tagBar+round, c.barBuf[:]); err != nil {
			return err
		}
	}
	return nil
}
