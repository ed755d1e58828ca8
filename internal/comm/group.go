package comm

import (
	"fmt"
	"sort"
)

// Group communicators. Split partitions an existing communicator's ranks
// into disjoint sub-groups, MPI_Comm_split-style; each group is a full
// Communicator (all collectives, traffic counters, nonblocking requests)
// whose transport forwards to the parent's fabric with rank translation and
// a group-private tag space. The two-level hierarchical collectives
// (hierarchy.go) are built on exactly two Splits: one per node and one over
// the node leaders.

// groupTagShift spaces each group's tags above the parent's. The flat
// collectives use tag bases up to tagHier (13<<16) plus sub-tag offsets that
// stay below 1<<17, so 1<<21 per color leaves no overlap.
const groupTagShift = 1 << 21

// groupTransport adapts a parent communicator's transport to a subset of its
// ranks: group rank i maps to parent rank ranks[i], and every tag is lifted
// into a private tag block (a Split color's, or a concurrency context's) so
// derived traffic can never be mistaken for parent traffic on a shared
// (src, dst) pair.
type groupTransport struct {
	parent Transport
	ranks  []int // group rank -> parent rank
	rank   int   // my group rank
	tagOff int
}

func (t *groupTransport) Rank() int { return t.rank }
func (t *groupTransport) Size() int { return len(t.ranks) }

func (t *groupTransport) Send(to, tag int, data []float32) error {
	if to < 0 || to >= len(t.ranks) {
		return fmt.Errorf("comm: group send to invalid rank %d", to)
	}
	return t.parent.Send(t.ranks[to], tag+t.tagOff, data)
}

func (t *groupTransport) Recv(from, tag int, data []float32) error {
	if from < 0 || from >= len(t.ranks) {
		return fmt.Errorf("comm: group recv from invalid rank %d", from)
	}
	return t.parent.Recv(t.ranks[from], tag+t.tagOff, data)
}

// Close is a no-op: the parent owns the underlying transport.
func (t *groupTransport) Close() error { return nil }

// GlobalRank maps a group rank to the parent's label and keeps translating
// up the chain, so a hierarchy tier's beacons name physical workers.
func (t *groupTransport) GlobalRank(local int) int {
	if local < 0 || local >= len(t.ranks) {
		return local
	}
	r := t.ranks[local]
	if g, ok := t.parent.(*groupTransport); ok {
		return g.GlobalRank(r)
	}
	return r
}

// derive builds a child communicator over this one's fabric — a Split group
// or a concurrency context — with the given rank map and tag block. The child
// inherits the retry policy, the send observer and the buffered-send
// capability (a derived send is exactly a parent send on a remapped rank and
// tag), and is registered as a child, so traffic and later
// SetRetry/SetSendObserver calls reach it.
func (c *Communicator) derive(ranks []int, rank, tagOff int) *Communicator {
	g := NewCommunicator(&groupTransport{parent: c.t, ranks: ranks, rank: rank, tagOff: tagOff})
	g.buffered = c.buffered
	g.retry = c.retry
	g.sendObs = c.sendObs
	c.children = append(c.children, g)
	return g
}

// ColorUndefined excludes the calling rank from every group, like
// MPI_UNDEFINED: Split still participates in the collective exchange but
// returns a nil communicator.
const ColorUndefined = -1

// Split partitions the communicator into disjoint sub-communicators. It is a
// collective call: every rank passes one color (>= 0, or ColorUndefined to
// opt out) and a key; ranks sharing a color form a group whose ranks are
// ordered by (key, parent rank). Returns the caller's group communicator, or
// nil for ColorUndefined.
//
// Group communicators share the parent's fabric but keep their own traffic
// counters; the parent's Traffic/ResetTraffic aggregate over its groups.
// Split is a setup-time collective — call it from the rank's owner goroutine
// before overlapping work, like the other blocking collectives.
func (c *Communicator) Split(color, key int) (*Communicator, error) {
	if color < ColorUndefined {
		return nil, fmt.Errorf("comm: split color %d out of range", color)
	}
	if key < 0 {
		return nil, fmt.Errorf("comm: split key %d must be non-negative", key)
	}
	p := c.Size()
	// Exchange (color, key) pairs so every rank can derive every group.
	mine := []float32{Float32FromIndex(uint32(color + 1)), Float32FromIndex(uint32(key))}
	all := make([]float32, 2*p)
	if err := c.flatAllgather(mine, all); err != nil {
		return nil, err
	}
	if color == ColorUndefined {
		return nil, nil
	}
	type member struct{ key, rank int }
	var members []member
	for r := 0; r < p; r++ {
		if int(Float32ToIndex(all[2*r]))-1 == color {
			members = append(members, member{key: int(Float32ToIndex(all[2*r+1])), rank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	ranks := make([]int, len(members))
	myRank := -1
	for i, m := range members {
		ranks[i] = m.rank
		if m.rank == c.Rank() {
			myRank = i
		}
	}
	return c.derive(ranks, myRank, (color+1)*groupTagShift), nil
}
