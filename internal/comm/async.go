package comm

import "errors"

// Nonblocking collectives. Every Communicator owns a set of progress workers
// (lazily started, one goroutine per tag-space context, mirroring MPI
// progress threads) that execute posted operations. In the default
// Deterministic mode — concurrency 1 — a single worker runs operations
// strictly in posting order, so the execution order and the floating-point
// reduction order are identical to issuing the same operations
// synchronously. SetConcurrency(n) adds n-1 derived communicators in
// disjoint tag-space contexts (see ctx.go): posted operations are assigned to
// contexts round-robin by posting sequence number, operations within a
// context still run in posting order, and operations in different contexts
// run concurrently — several bucket rings in flight at once. Because the
// context assignment depends only on the posting sequence, every rank routes
// the k-th posted collective to the same context and the same tag block;
// the transports' tag matchers demultiplex the interleaved wire traffic.
//
// Requests are pooled: posting draws a request from the communicator's
// freelist and the first Wait returns it, so a steady-state post/Wait cycle
// never touches the allocator. All communication work posts through the Op
// interface (Post), whose RunOp receives the context communicator the
// operation was assigned to.
//
// Contract: all ranks must post the same sequence of operations with the
// same concurrency setting, and the owner must not issue blocking
// collectives on the communicator while posted operations are outstanding
// (Wait first). A Request belongs to one waiter: Wait is idempotent for the
// holder, but the request is recycled on the first Wait — its error remains
// readable until the communicator reuses the request for a later post.

// Request is the handle of one posted nonblocking operation.
type Request interface {
	// Wait blocks until the operation completes and returns its error.
	// Wait is idempotent until the request is recycled by a later post on
	// the same communicator; do not call Wait from multiple goroutines.
	Wait() error
}

// Op is a typed unit of asynchronous communication work. RunOp receives the
// communicator of the tag-space context the operation was assigned to and
// must issue all its collectives on it. Implementations are typically small
// caller-pooled structs — posting a *T converts to Op without allocating —
// which keeps the training hot path free of closures.
type Op interface {
	RunOp(c *Communicator) error
}

type asyncReq struct {
	c    *Communicator
	done chan struct{} // 1-buffered completion token, persists across reuse
	op   Op

	err      error
	released bool
	next     *asyncReq // freelist link
}

func (r *asyncReq) Wait() error {
	if r.released {
		return r.err
	}
	<-r.done
	err := r.err
	r.released = true
	r.c.recycleReq(r)
	return err
}

// reqQueue is one context's FIFO of posted requests. buf[head:] are pending;
// the slice is compacted when it drains, so after warm-up a post/run cycle
// reuses its capacity and never allocates. loop is the context's worker body,
// built once at queue initialization: `go q.loop()` passes the stored funcval
// straight to the runtime, whereas `go c.ctxLoop(k)` would heap-allocate a
// wrapper and argument frame on every worker restart — two allocations per
// step the pooled path must not pay.
type reqQueue struct {
	buf     []*asyncReq
	head    int
	running bool
	loop    func()
}

// initQueues builds n context queues with their worker closures. Caller
// holds asyncMu.
func (c *Communicator) initQueues(n int) {
	c.ctxQueues = make([]reqQueue, n)
	for k := range c.ctxQueues {
		k := k
		c.ctxQueues[k].loop = func() { c.ctxLoop(k) }
	}
}

// newReq draws a request from the freelist (or allocates on cold start) and
// resets it for posting. Caller fills in the operation.
func (c *Communicator) newReq() *asyncReq {
	c.asyncMu.Lock()
	r := c.freeReqs
	if r != nil {
		c.freeReqs = r.next
	}
	c.asyncMu.Unlock()
	if r == nil {
		r = &asyncReq{c: c, done: make(chan struct{}, 1)}
	}
	r.next = nil
	r.err = nil
	r.released = false
	return r
}

// recycleReq drops the request's operation reference and returns it to the
// freelist.
func (c *Communicator) recycleReq(r *asyncReq) {
	r.op = nil
	c.asyncMu.Lock()
	r.next = c.freeReqs
	c.freeReqs = r
	c.asyncMu.Unlock()
}

// enqueue routes a request to a context queue and ensures its worker runs.
// Operations are distributed round-robin by posting sequence (every rank
// posts the same sequence, so every rank picks the same context for the k-th
// operation).
func (c *Communicator) enqueue(r *asyncReq) {
	c.asyncMu.Lock()
	if len(c.ctxQueues) == 0 {
		c.initQueues(1)
	}
	k := 0
	if len(c.ctxQueues) > 1 {
		k = int(c.postSeq % uint64(len(c.ctxQueues)))
		c.postSeq++
	}
	q := &c.ctxQueues[k]
	q.buf = append(q.buf, r)
	if !q.running {
		q.running = true
		go q.loop()
	}
	c.asyncMu.Unlock()
}

// ctxLoop is context k's progress worker: it drains the context queue in
// FIFO order and parks (exits) when the queue is empty, so an idle
// communicator holds no goroutines.
func (c *Communicator) ctxLoop(k int) {
	cc := c.ctxComm(k)
	for {
		c.asyncMu.Lock()
		q := &c.ctxQueues[k]
		if q.head == len(q.buf) {
			q.buf = q.buf[:0]
			q.head = 0
			q.running = false
			c.asyncMu.Unlock()
			return
		}
		r := q.buf[q.head]
		q.buf[q.head] = nil
		q.head++
		c.asyncMu.Unlock()
		r.err = r.op.RunOp(cc)
		r.done <- struct{}{}
	}
}

// Post submits a typed operation for asynchronous execution and returns its
// Request. Operations are assigned to tag-space contexts round-robin in
// posting order; within a context they run serially, across contexts
// concurrently (with concurrency 1 — the Deterministic default — this is
// strict posting order). op.RunOp receives the assigned context
// communicator. Posting is allocation-free in steady state when op is a
// pointer to a caller-pooled struct.
func (c *Communicator) Post(op Op) Request {
	r := c.newReq()
	r.op = op
	c.enqueue(r)
	return r
}

// WaitAll waits on every request and returns all errors joined (nil when
// every operation succeeded) — a multi-bucket failure reports every failed
// exchange, not just the first.
func WaitAll(reqs []Request) error {
	var errs []error
	for _, r := range reqs {
		if err := r.Wait(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
