package comm

import (
	"fmt"
	"slices"
)

// Tag-space contexts: the machinery that lets several collectives run
// concurrently on one communicator without crossing wires. Each context k>0
// is a duplicate of the communicator, MPI_Comm_dup-style: a derived group
// (group.go) with the identity rank map whose every tag is lifted by
// k*ctxTagShift, extending the flat tag-base scheme of comm.go
// (tagRingRS = 1<<16 …) and the per-group shift of group.go (1<<21 per
// Split color) by one more level. The tag budget, low to high:
//
//	bits  0..15  per-step sub-tags of one collective
//	bits 16..20  collective kind (tagRingRS … tagHier)
//	bits 21..27  Split color + 1 (group communicators, hierarchy tiers)
//	bits 28..31  tag-space context (this file)
//
// tcpnet frames carry the tag as a uint32, so contexts are capped at 8 and
// the whole lifted tag stays within 32 bits for any sane group size.
// Context 0 is the parent communicator itself.

// ctxTagShift spaces each context's tag block above group tag space.
const ctxTagShift = 1 << 28

// MaxConcurrency bounds SetConcurrency: 8 contexts exhaust the tag bits
// above the per-color group space.
const MaxConcurrency = 8

// SetConcurrency sets the number of tag-space contexts available to the
// nonblocking operations: 1 (the default) is the Deterministic mode — a
// single progress worker executing posted operations strictly in posting
// order, bitwise-identical to the serial path — and n>1 lets up to n posted
// operations proceed concurrently in disjoint tag blocks.
//
// All ranks must call SetConcurrency with the same n at the same point in
// their posting sequence, with no nonblocking operations outstanding. On a
// flat communicator the call is purely local; on one with a two-level
// topology (SetTopology) it is a collective, because each context replays
// the topology splits in its own tag space. Contexts are registered as
// children, so Traffic/ResetTraffic, SetRetry and SetSendObserver reach
// them; a later call replaces them as children, after folding their traffic
// into this communicator's own counters, so Traffic's totals carry over and
// nothing reaches a context that is no longer in use.
func (c *Communicator) SetConcurrency(n int) error {
	if n < 1 || n > MaxConcurrency {
		return fmt.Errorf("comm: concurrency %d out of range [1,%d]", n, MaxConcurrency)
	}
	c.asyncMu.Lock()
	for k := range c.ctxQueues {
		q := &c.ctxQueues[k]
		if q.running || q.head != len(q.buf) {
			c.asyncMu.Unlock()
			return fmt.Errorf("comm: SetConcurrency with operations outstanding in context %d", k)
		}
	}
	old := c.ctxComms
	c.asyncMu.Unlock()

	identity := make([]int, c.Size())
	for r := range identity {
		identity[r] = r
	}
	ctxComms := make([]*Communicator, n)
	ctxComms[0] = c
	for k := 1; k < n; k++ {
		sc := c.derive(identity, c.Rank(), k*ctxTagShift)
		if c.hier != nil {
			if err := sc.SetTopology(c.hier.ranksPerNode); err != nil {
				return fmt.Errorf("comm: context %d topology: %w", k, err)
			}
		}
		ctxComms[k] = sc
	}
	if len(old) > 1 {
		c.dropChildren(old[1:])
	}

	c.asyncMu.Lock()
	c.ctxComms = ctxComms
	c.initQueues(n)
	c.postSeq = 0
	c.asyncMu.Unlock()
	return nil
}

// dropChildren removes gone from the children, adding their traffic to this
// communicator's own counters first.
func (c *Communicator) dropChildren(gone []*Communicator) {
	for _, g := range gone {
		t := g.Traffic()
		c.bytesSent.Add(t.BytesSent)
		c.bytesRecv.Add(t.BytesRecv)
		c.msgsSent.Add(t.MsgsSent)
		c.msgsRecv.Add(t.MsgsRecv)
	}
	c.children = slices.DeleteFunc(c.children, func(ch *Communicator) bool { return slices.Contains(gone, ch) })
}

// Concurrency returns the number of tag-space contexts (1 = Deterministic
// mode).
func (c *Communicator) Concurrency() int {
	c.asyncMu.Lock()
	defer c.asyncMu.Unlock()
	if len(c.ctxComms) == 0 {
		return 1
	}
	return len(c.ctxComms)
}

// ctxComm returns the communicator of context k.
func (c *Communicator) ctxComm(k int) *Communicator {
	if k == 0 {
		return c
	}
	c.asyncMu.Lock()
	defer c.asyncMu.Unlock()
	return c.ctxComms[k]
}
