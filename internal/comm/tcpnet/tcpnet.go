// Package tcpnet implements the comm.Transport interface over real TCP
// sockets. It exists to prove that the collective algorithms in
// a2sgd/internal/comm run unchanged over an actual network stack — the role
// the 100 Gbps InfiniBand fabric plays in the paper's testbed — and to host
// the failure-injection tests (a dead worker surfaces as a transport error,
// not a hang).
//
// Topology: full mesh. Every rank opens one listener; rank i dials every
// rank j > i and identifies itself with a 4-byte handshake. Messages are
// framed as [uint32 tag][uint32 nElems][nElems × float32 little-endian].
//
// The framing is zero-copy in steady state: on little-endian builds the
// float32 payload's backing memory IS the wire representation
// (tensor.F32LEBytes), so Send hands the kernel an iovec of {header,
// payload} via net.Buffers (one writev, no staging copy) and Recv reads the
// socket directly into the caller's destination buffer. The safe fallback
// (big-endian targets or -tags purego) converts through per-peer wire
// buffers that are pooled and sized by the frame header, so either path
// stays off the allocator after warm-up.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// Config carries the optional transport knobs.
type Config struct {
	// IOTimeout, when > 0, bounds every socket operation — the handshake
	// dial/accept/identify steps and each steady-state Send and Recv frame.
	// Expiry surfaces as a *comm.PeerError{Timeout: true} naming the peer
	// rank and operation. A Recv deadline that expires before any header
	// byte arrived leaves the stream intact (the error is not sticky);
	// expiry mid-frame corrupts the stream and fails all later operations
	// on that peer. Zero (the default) preserves the historical behavior:
	// block forever, a dead peer hangs the rank.
	IOTimeout time.Duration
}

// peerState is the per-peer wire machinery: one lock per direction plus the
// reusable framing buffers of the zero-allocation hot path.
//
// The read side is a tag matcher: concurrent collectives run in disjoint tag
// blocks but share the peer's byte stream, so the receiver that drains the
// next frame (the puller — rhdr/rwire are exclusively its scratch) may find
// a frame for a different in-flight operation. Such frames are stashed in
// pooled buffers in arrival order and rcond wakes the other receivers to
// re-scan. In Deterministic mode only one operation is outstanding, the
// stash stays empty and the pull is the only hop.
type peerState struct {
	wmu    sync.Mutex  // write lock
	hdr    [8]byte     // outgoing frame header scratch
	iov    net.Buffers // {header, payload} iovec view consumed by writev
	iovArr [2][]byte   // backing storage iov is rebuilt from each Send
	wire   []byte      // fallback: staged little-endian payload

	werr error // sticky write error (under wmu); a partial frame corrupts the stream

	rmu     sync.Mutex  // guards the matcher state below
	rcond   sync.Cond   // wakes waiting receivers after a stash/err/puller exit
	pulling bool        // a receiver is draining the stream
	rerr    error       // sticky stream error; fails all subsequent Recvs
	pend    []pendFrame // stashed out-of-tag frames, arrival order
	rhdr    [8]byte     // incoming frame header scratch (puller-owned)
	rwire   []byte      // fallback: staged receive buffer (puller-owned)
}

// pendFrame is one stashed frame: data is a view of *buf, a transit buffer
// drawn from the transport pool and recycled when the matching Recv copies
// it out.
type pendFrame struct {
	tag  int
	data []float32
	buf  *[]float32
}

// Transport is a TCP-backed comm.Transport endpoint.
type Transport struct {
	rank, size int
	listener   net.Listener
	ioTimeout  time.Duration

	mu    sync.Mutex // guards conns/readers during setup and Close
	conns []net.Conn
	peers []peerState
	rbuf  []*bufio.Reader
	rpool sync.Pool // *[]float32 transit buffers for stashed frames
}

var _ comm.Transport = (*Transport)(nil)

// Rank returns this endpoint's rank.
func (t *Transport) Rank() int { return t.rank }

// Size returns the group size.
func (t *Transport) Size() int { return t.size }

// addr returns the listen address of this endpoint.
func (t *Transport) addr() string { return t.listener.Addr().String() }

// NewLocalGroup builds a fully connected TCP group of the given size on the
// loopback interface and returns one Communicator per rank plus a shutdown
// function. It is the single-process analogue of an mpirun over TCP.
func NewLocalGroup(size int) ([]*comm.Communicator, func(), error) {
	ts, shutdown, err := NewLocalMesh(size)
	if err != nil {
		return nil, nil, err
	}
	cs := make([]*comm.Communicator, size)
	for r, t := range ts {
		cs[r] = comm.NewCommunicator(t)
	}
	return cs, shutdown, nil
}

// NewLocalMesh builds the fully connected loopback mesh and returns the raw
// transports — the layer the hot-path benchmarks drive directly to measure
// framed send/receive without collective logic on top.
func NewLocalMesh(size int) ([]*Transport, func(), error) {
	return NewLocalMeshConfig(size, Config{})
}

// NewLocalMeshConfig is NewLocalMesh with transport configuration.
func NewLocalMeshConfig(size int, cfg Config) ([]*Transport, func(), error) {
	ts := make([]*Transport, size)
	for r := 0; r < size; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("tcpnet: listen rank %d: %w", r, err)
		}
		ts[r] = newTransport(r, size, ln, cfg)
	}
	addrs := make([]string, size)
	for r, t := range ts {
		addrs[r] = t.addr()
	}

	// Handshake protocol: rank j's accept goroutine expects exactly j inbound
	// connections (one from every lower rank); rank i's dial goroutine opens
	// one connection to every higher rank and identifies itself with a 4-byte
	// little-endian rank header as its first bytes. Each of the size-1 accept
	// goroutines and size dial goroutines sends at most one error before
	// returning, so a 2*size-buffered channel can never block a sender.
	var wg sync.WaitGroup
	errc := make(chan error, 2*size)
	// Accept loop per rank: expect `rank` inbound connections (from lower ranks).
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(t *Transport) {
			defer wg.Done()
			for i := 0; i < t.rank; i++ {
				if t.ioTimeout > 0 {
					if tl, ok := t.listener.(*net.TCPListener); ok {
						_ = tl.SetDeadline(time.Now().Add(t.ioTimeout))
					}
				}
				conn, err := t.listener.Accept()
				if err != nil {
					errc <- handshakeErr(-1, err)
					return
				}
				if t.ioTimeout > 0 {
					_ = conn.SetReadDeadline(time.Now().Add(t.ioTimeout))
				}
				var hdr [4]byte
				if _, err := readFull(conn, hdr[:]); err != nil {
					errc <- handshakeErr(-1, err)
					return
				}
				_ = conn.SetReadDeadline(time.Time{})
				peer := int(binary.LittleEndian.Uint32(hdr[:]))
				if peer < 0 || peer >= t.size {
					errc <- fmt.Errorf("tcpnet: bad handshake rank %d", peer)
					return
				}
				t.setConn(peer, conn)
			}
		}(ts[r])
	}
	// Dial from each rank to all higher ranks.
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(t *Transport) {
			defer wg.Done()
			for peer := t.rank + 1; peer < size; peer++ {
				var conn net.Conn
				var err error
				if t.ioTimeout > 0 {
					conn, err = net.DialTimeout("tcp", addrs[peer], t.ioTimeout)
				} else {
					conn, err = net.Dial("tcp", addrs[peer])
				}
				if err != nil {
					errc <- handshakeErr(peer, err)
					return
				}
				if t.ioTimeout > 0 {
					_ = conn.SetWriteDeadline(time.Now().Add(t.ioTimeout))
				}
				var hdr [4]byte
				binary.LittleEndian.PutUint32(hdr[:], uint32(t.rank))
				if _, err := conn.Write(hdr[:]); err != nil {
					errc <- handshakeErr(peer, err)
					return
				}
				_ = conn.SetWriteDeadline(time.Time{})
				t.setConn(peer, conn)
			}
		}(ts[r])
	}
	wg.Wait()
	select {
	case err := <-errc:
		for _, t := range ts {
			_ = t.Close()
		}
		return nil, nil, err
	default:
	}

	shutdown := func() {
		for _, t := range ts {
			_ = t.Close()
		}
	}
	return ts, shutdown, nil
}

// newTransport is rank's endpoint of a size-rank mesh, with no peer
// connected yet.
func newTransport(rank, size int, ln net.Listener, cfg Config) *Transport {
	t := &Transport{
		rank: rank, size: size, listener: ln,
		ioTimeout: cfg.IOTimeout,
		conns:     make([]net.Conn, size),
		peers:     make([]peerState, size),
		rbuf:      make([]*bufio.Reader, size),
	}
	t.rpool.New = func() any { return new([]float32) }
	for p := range t.peers {
		ps := &t.peers[p]
		ps.rcond.L = &ps.rmu
	}
	return t
}

func (t *Transport) setConn(peer int, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	t.mu.Lock()
	t.conns[peer] = conn
	t.rbuf[peer] = bufio.NewReaderSize(conn, 1<<16)
	t.mu.Unlock()
}

func (t *Transport) conn(peer int) (net.Conn, *bufio.Reader, error) {
	if peer < 0 || peer >= t.size || peer == t.rank {
		return nil, nil, fmt.Errorf("tcpnet: invalid peer %d", peer)
	}
	t.mu.Lock()
	c, r := t.conns[peer], t.rbuf[peer]
	t.mu.Unlock()
	if c == nil {
		return nil, nil, fmt.Errorf("tcpnet: no connection to peer %d", peer)
	}
	return c, r, nil
}

// Send implements comm.Transport. On zero-copy builds the payload's backing
// memory is the wire format, so one writev ships {header, payload} without
// staging; the fallback converts into the peer's reusable wire buffer. Both
// paths are allocation-free in steady state.
func (t *Transport) Send(to, tag int, data []float32) error {
	conn, _, err := t.conn(to)
	if err != nil {
		return err
	}
	ps := &t.peers[to]
	ps.wmu.Lock()
	defer ps.wmu.Unlock()
	if ps.werr != nil {
		return ps.werr
	}
	binary.LittleEndian.PutUint32(ps.hdr[0:], uint32(tag))
	binary.LittleEndian.PutUint32(ps.hdr[4:], uint32(len(data)))
	var payload []byte
	if tensor.BitsZeroCopy() {
		payload = tensor.F32LEBytes(data)
	} else {
		if cap(ps.wire) < 4*len(data) {
			ps.wire = make([]byte, 4*len(data))
		}
		payload = ps.wire[:4*len(data)]
		tensor.PutF32LE(payload, data)
	}
	// net.Buffers.WriteTo is a single writev on *net.TCPConn; it consumes
	// the iov view, which is rebuilt from the persistent backing array on
	// every Send — nothing here touches the allocator.
	ps.iovArr[0], ps.iovArr[1] = ps.hdr[:], payload
	ps.iov = ps.iovArr[:]
	if t.ioTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(t.ioTimeout))
	}
	if _, err := ps.iov.WriteTo(conn); err != nil {
		// The frame may have left partially — the outgoing stream position
		// is unknown either way, so every write error is sticky.
		werr := error(fmt.Errorf("tcpnet: send to %d: %w", to, err))
		if isTimeout(err) {
			werr = &comm.PeerError{Rank: to, Op: "send", Timeout: true, Err: err}
		}
		ps.werr = werr
		return werr
	}
	return nil
}

// isTimeout reports whether err is an I/O deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handshakeErr wraps a mesh-setup failure as a typed peer error. peer is -1
// on the accept side, where the dialer's identity is not yet known.
func handshakeErr(peer int, err error) error {
	return &comm.PeerError{Rank: peer, Op: "handshake", Timeout: isTimeout(err), Err: err}
}

// readPayload reads one n-element frame payload from the socket into dst:
// straight into dst's memory on zero-copy builds, staged through the peer's
// receive buffer otherwise. Caller must be the puller.
func (t *Transport) readPayload(r *bufio.Reader, ps *peerState, dst []float32) error {
	if tensor.BitsZeroCopy() {
		_, err := readFull(r, tensor.F32LEBytes(dst))
		return err
	}
	if cap(ps.rwire) < 4*len(dst) {
		ps.rwire = make([]byte, 4*len(dst))
	}
	buf := ps.rwire[:4*len(dst)]
	if _, err := readFull(r, buf); err != nil {
		return err
	}
	tensor.GetF32LE(dst, buf)
	return nil
}

// stashChunk is the first growth step, in elements, of a stash that does not
// fit its transit buffer.
const stashChunk = 1 << 14

// readStash reads an n-element payload into the transit buffer *bp and
// returns it. A buffer that already holds n elements takes the payload in
// one read. A smaller one grows as the payload arrives, each step reading
// into the new room before the next: it never holds more than stashChunk
// elements or twice what has been read, whichever is larger. A corrupt or
// hostile header's length thus costs memory in proportion to the bytes that
// really follow it. Caller must be the puller.
func (t *Transport) readStash(r *bufio.Reader, ps *peerState, bp *[]float32, n int) ([]float32, error) {
	if cap(*bp) >= n {
		stash := (*bp)[:n]
		return stash, t.readPayload(r, ps, stash)
	}
	stash := (*bp)[:0]
	for len(stash) < n {
		m := min(n-len(stash), max(len(stash), stashChunk))
		if cap(stash) < len(stash)+m {
			stash = append(make([]float32, 0, len(stash)+m), stash...)
		}
		if err := t.readPayload(r, ps, stash[len(stash):len(stash)+m]); err != nil {
			return nil, err
		}
		stash = stash[:len(stash)+m]
	}
	*bp = stash
	return stash, nil
}

// lengthErr is the error a receiver gets for a frame of its tag whose
// length is not its buffer's. It is not sticky: the frame's payload has
// been consumed, so the stream stays in step.
func lengthErr(from, tag, got, want int) error {
	return fmt.Errorf("tcpnet: length mismatch from %d tag %d: got %d want %d", from, tag, got, want)
}

// payloadErr types a failure while reading a frame's payload. The stream
// position is lost, so the caller latches it as the peer's sticky error.
func payloadErr(from int, err error) error {
	err = fmt.Errorf("tcpnet: recv payload from %d: %w", from, err)
	if isTimeout(err) {
		err = &comm.PeerError{Rank: from, Op: "recv", Timeout: true, Err: err}
	}
	return err
}

// endPull ends the caller's turn at the stream (under rmu) and wakes every
// waiting receiver. A non-nil sticky error is latched: the stream position
// is lost, so every later Recv on this peer fails with it.
func (ps *peerState) endPull(sticky error) {
	ps.pulling = false
	if sticky != nil {
		ps.rerr = sticky
	}
	ps.rcond.Broadcast()
}

// leave is endPull for a puller that returns err to its caller.
func (ps *peerState) leave(err, sticky error) error {
	ps.rmu.Lock()
	ps.endPull(sticky)
	ps.rmu.Unlock()
	return err
}

// Recv implements comm.Transport. Frames arriving for the expected tag are
// read from the socket straight into the destination buffer's memory on
// zero-copy builds (staged through a per-peer receive buffer otherwise);
// frames for other in-flight tags are stashed in pooled transit buffers
// until their receiver claims them.
func (t *Transport) Recv(from, tag int, data []float32) error {
	conn, r, err := t.conn(from)
	if err != nil {
		return err
	}
	ps := &t.peers[from]
	ps.rmu.Lock()
	for {
		// First satisfy from the stash (arrival order ⇒ per-tag FIFO).
		for i := range ps.pend {
			if ps.pend[i].tag == tag {
				m := ps.pend[i]
				ps.pend = append(ps.pend[:i], ps.pend[i+1:]...)
				ps.rmu.Unlock()
				var err error
				if len(m.data) != len(data) {
					err = lengthErr(from, tag, len(m.data), len(data))
				} else {
					copy(data, m.data)
				}
				t.rpool.Put(m.buf)
				return err
			}
		}
		if ps.rerr != nil {
			err := ps.rerr
			ps.rmu.Unlock()
			return err
		}
		if ps.pulling {
			// Another receiver is draining the stream; it will stash or
			// take the next frame and wake us to re-scan.
			ps.rcond.Wait()
			continue
		}
		ps.pulling = true
		ps.rmu.Unlock()

		if t.ioTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(t.ioTimeout))
		}
		if n0, err := readFull(r, ps.rhdr[:]); err != nil {
			var sticky error
			if n0 == 0 && isTimeout(err) {
				// Deadline expired before any header byte arrived: the
				// stream is intact, so the error names the slow peer but is
				// NOT sticky — a later Recv (or a retried one) still works.
				err = &comm.PeerError{Rank: from, Op: "recv", Timeout: true, Err: err}
			} else {
				// A dead stream fails every receiver on this peer, now and
				// later.
				err = fmt.Errorf("tcpnet: recv from %d: %w", from, err)
				if isTimeout(err) {
					err = &comm.PeerError{Rank: from, Op: "recv", Timeout: true, Err: err}
				}
				sticky = err
			}
			return ps.leave(err, sticky)
		}
		gotTag := int(binary.LittleEndian.Uint32(ps.rhdr[0:]))
		claim := uint64(binary.LittleEndian.Uint32(ps.rhdr[4:]))
		if 4*claim > math.MaxInt {
			// Only a 32-bit int cannot count the payload's bytes; the
			// stream cannot be kept in step past such a frame.
			err := fmt.Errorf("tcpnet: recv from %d: frame of %d elements", from, claim)
			return ps.leave(err, err)
		}
		n := int(claim)
		if t.ioTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(t.ioTimeout))
		}
		if gotTag == tag {
			if n != len(data) {
				// Consume the payload so the next header is read in step.
				if _, err := r.Discard(4 * n); err != nil {
					err = payloadErr(from, err)
					return ps.leave(err, err)
				}
				return ps.leave(lengthErr(from, tag, n, len(data)), nil)
			}
			if err := t.readPayload(r, ps, data); err != nil {
				err = payloadErr(from, err)
				return ps.leave(err, err)
			}
			return ps.leave(nil, nil)
		}
		// Out-of-tag frame: stash it in a pooled transit buffer.
		bp := t.rpool.Get().(*[]float32)
		stash, err := t.readStash(r, ps, bp, n)
		if err != nil {
			t.rpool.Put(bp)
			err = payloadErr(from, err)
			return ps.leave(err, err)
		}
		ps.rmu.Lock()
		ps.pend = append(ps.pend, pendFrame{tag: gotTag, data: stash, buf: bp})
		ps.endPull(nil)
		// Loop: re-scan the stash or become the puller again.
	}
}

// Close shuts the listener and all peer connections; pending Recvs fail.
func (t *Transport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	if t.listener != nil {
		first = t.listener.Close()
		t.listener = nil
	}
	for i, c := range t.conns {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
			t.conns[i] = nil
		}
	}
	return first
}

type reader interface{ Read([]byte) (int, error) }

func readFull(r reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// RunGroup is the TCP analogue of comm.RunGroup: it builds a loopback mesh
// of the given size with NewLocalGroup and hands its communicators to
// comm.Launch, with the mesh's shutdown as the fail-fast teardown. The
// training runtime accepts it as a GroupRunner to run whole experiments over
// a real network stack.
func RunGroup(size int, body func(c *comm.Communicator) error) error {
	cs, shutdown, err := NewLocalGroup(size)
	if err != nil {
		return err
	}
	defer shutdown()
	return comm.Launch(cs, shutdown, body)
}
