package comm

import "fmt"

// Two-level hierarchical collectives. A flat worker group models the paper's
// testbed (every pair of ranks one hop apart); real clusters are two-tier —
// several workers per node on a fast local interconnect, nodes joined by a
// slower network. SetTopology teaches a Communicator that shape: consecutive
// runs of ranksPerNode ranks form a node, rank node*ranksPerNode is the
// node's leader, and the core collectives transparently switch to two-level
// schedules:
//
//	AllreduceSum/Mean: intra-node reduce to the leader → inter-node
//	                   allreduce among leaders → intra-node broadcast
//	Allgather(V):      intra-node gather → inter-node exchange of node
//	                   blocks among leaders → intra-node broadcast
//	Broadcast:         root → its node leader → inter-node broadcast →
//	                   intra-node broadcast
//
// The schedules move the O(n·P) flat traffic off the slow tier: each bucket
// crosses the inter-node network once per node instead of once per rank.
// Callers — including operations posted through Post and every compression
// algorithm's Exchange — are unchanged; only the rank
// partition is new. The reduction ORDER differs from the flat schedule, so
// hierarchical results match flat ones to float tolerance, not bitwise; for
// a fixed topology and seed they remain fully deterministic.

// hierarchy holds the sub-communicators of a two-level topology.
type hierarchy struct {
	ranksPerNode int
	node         int           // my node index
	nodes        int           // node count
	intra        *Communicator // the ranks of my node (never nil)
	inter        *Communicator // node leaders; nil on non-leader ranks
}

const (
	// tagGatherR tags the rooted intra-node gather of hierAllgather.
	tagGatherR = 11 << 16
	// tagHier tags the root→leader forwarding hop of hierarchical broadcast.
	tagHier = 13 << 16
)

// SetTopology configures (or, with ranksPerNode <= 1, clears) the two-level
// topology. It is a collective call: every rank must pass the same
// ranksPerNode. Values larger than the group size are clamped (one node).
// Consecutive ranks share a node, so a launcher that places ranks
// node-major — as mpirun and the in-process fabrics do — needs no rank
// reordering.
func (c *Communicator) SetTopology(ranksPerNode int) error {
	p, r := c.Size(), c.Rank()
	c.hier = nil // splits below must run over the flat collectives
	if ranksPerNode <= 1 || p == 1 {
		return nil
	}
	if ranksPerNode > p {
		ranksPerNode = p
	}
	node := r / ranksPerNode
	intra, err := c.Split(node, r)
	if err != nil {
		return fmt.Errorf("comm: topology intra split: %w", err)
	}
	leaderColor := ColorUndefined
	if r%ranksPerNode == 0 {
		leaderColor = 0
	}
	inter, err := c.Split(leaderColor, r)
	if err != nil {
		return fmt.Errorf("comm: topology inter split: %w", err)
	}
	c.hier = &hierarchy{
		ranksPerNode: ranksPerNode,
		node:         node,
		nodes:        (p + ranksPerNode - 1) / ranksPerNode,
		intra:        intra,
		inter:        inter,
	}
	return nil
}

// Topology returns the configured ranks-per-node, or 0 when the
// communicator is flat.
func (c *Communicator) Topology() int {
	if c.hier == nil {
		return 0
	}
	return c.hier.ranksPerNode
}

// hierAllreduceSum is the two-level sum: node-local binomial reduce into the
// leader, allreduce among leaders on the inter-node tier, node-local
// broadcast of the result.
func (c *Communicator) hierAllreduceSum(v []float32, algo AllreduceAlgorithm) error {
	h := c.hier
	if err := h.intra.Reduce(v, 0); err != nil {
		return err
	}
	if h.inter != nil && h.inter.Size() > 1 {
		if err := h.inter.AllreduceSum(v, algo); err != nil {
			return err
		}
	}
	return h.intra.Broadcast(v, 0)
}

// Gather collects every rank's equal-length contribution at root: root's
// out (length len(in)·P) receives rank i's block at offset i·len(in).
// Non-root ranks may pass nil out. Flat algorithm: P−1 point-to-point
// messages into the root.
func (c *Communicator) Gather(in []float32, out []float32, root int) error {
	p, r := c.Size(), c.Rank()
	if root < 0 || root >= p {
		return ErrLengthMismatch
	}
	if r == root {
		if len(out) != len(in)*p {
			return ErrLengthMismatch
		}
		copy(out[r*len(in):(r+1)*len(in)], in)
		for src := 0; src < p; src++ {
			if src == root {
				continue
			}
			if err := c.recv(src, tagGatherR+src, out[src*len(in):(src+1)*len(in)]); err != nil {
				return err
			}
		}
		return nil
	}
	return c.send(root, tagGatherR+r, in)
}

// hierAllgather gathers each node's blocks at its leader (directly into the
// leader's slice of out, which is already laid out in global rank order
// because nodes are contiguous rank ranges), exchanges node blocks among
// leaders, and broadcasts the assembled result within each node.
func (c *Communicator) hierAllgather(in, out []float32) error {
	h := c.hier
	blk := len(in)
	m := h.intra.Size()
	nodeStart := h.node * h.ranksPerNode
	nodeView := out[nodeStart*blk : (nodeStart+m)*blk]
	if h.intra.Rank() == 0 {
		if err := h.intra.Gather(in, nodeView, 0); err != nil {
			return err
		}
		if h.inter != nil && h.inter.Size() > 1 {
			if c.Size()%h.ranksPerNode == 0 {
				// Equal node sizes: leader i's block belongs at offset
				// i*m*blk, exactly where ring allgather places it.
				if err := h.inter.Allgather(nodeView, out); err != nil {
					return err
				}
			} else {
				// Ragged last node: variable-size exchange; node blocks
				// concatenate in leader order, which is global rank order.
				all, _, err := h.inter.AllgatherV(nodeView)
				if err != nil {
					return err
				}
				copy(out, all)
			}
		}
	} else if err := h.intra.Gather(in, nil, 0); err != nil {
		return err
	}
	return h.intra.Broadcast(out, 0)
}

// hierAllgatherV is the variable-length analogue: node-local allgatherv,
// leaders exchange per-rank lengths and concatenated node payloads, and the
// result (sized header first, then lengths, then data) is broadcast within
// each node. Block order is global rank order throughout because nodes are
// contiguous.
func (c *Communicator) hierAllgatherV(in []float32) (out []float32, lens []int, err error) {
	h := c.hier
	p := c.Size()
	nodeData, nodeLens, err := h.intra.AllgatherV(in)
	if err != nil {
		return nil, nil, err
	}
	if h.nodes == 1 {
		return nodeData, nodeLens, nil
	}

	var lensF []float32
	if h.inter != nil {
		myLensF := make([]float32, len(nodeLens))
		for i, l := range nodeLens {
			myLensF[i] = Float32FromIndex(uint32(l))
		}
		if lensF, _, err = h.inter.AllgatherV(myLensF); err != nil {
			return nil, nil, err
		}
		if out, _, err = h.inter.AllgatherV(nodeData); err != nil {
			return nil, nil, err
		}
	}
	// Leaders announce the total payload size, then ship lengths and data.
	hdr := []float32{0}
	if h.inter != nil {
		hdr[0] = Float32FromIndex(uint32(len(out)))
	}
	if err := h.intra.Broadcast(hdr, 0); err != nil {
		return nil, nil, err
	}
	if h.inter == nil {
		lensF = make([]float32, p)
		out = make([]float32, int(Float32ToIndex(hdr[0])))
	}
	if err := h.intra.Broadcast(lensF, 0); err != nil {
		return nil, nil, err
	}
	if err := h.intra.Broadcast(out, 0); err != nil {
		return nil, nil, err
	}
	lens = make([]int, p)
	for i := range lens {
		lens[i] = int(Float32ToIndex(lensF[i]))
	}
	return out, lens, nil
}

// hierBroadcast forwards root's data to its node leader, broadcasts among
// leaders, then within each node.
func (c *Communicator) hierBroadcast(v []float32, root int) error {
	h := c.hier
	r := c.Rank()
	rootNode := root / h.ranksPerNode
	rootLeader := rootNode * h.ranksPerNode
	if root != rootLeader {
		if r == root {
			if err := c.send(rootLeader, tagHier, v); err != nil {
				return err
			}
		}
		if r == rootLeader {
			if err := c.recv(root, tagHier, v); err != nil {
				return err
			}
		}
	}
	if h.inter != nil && h.inter.Size() > 1 {
		if err := h.inter.Broadcast(v, rootNode); err != nil {
			return err
		}
	}
	return h.intra.Broadcast(v, 0)
}
