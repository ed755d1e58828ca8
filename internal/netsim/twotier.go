package netsim

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Two-tier price law. A flat Fabric prices every rank pair identically; real
// clusters are hierarchical — several workers per node on a fast local
// interconnect (shared memory, NVLink, PCIe), nodes joined by a slower
// network. TwoTier prices the two-level collective schedules of
// comm.SetTopology: intra-node phases on the fast tier, the leader exchange
// on the slow tier. Both Fabric and TwoTier implement Pricer, so every
// modelled-iteration helper (cluster.Result.ModeledIterSec*) accepts either.

// Pricer prices the synchronization time of one training step. Fabric (flat
// α–β) and TwoTier (hierarchical) both implement it.
type Pricer interface {
	// Label identifies the network model in reports.
	Label() string
	// SyncTime prices one collective in which each worker contributes
	// bytesPerWorker, across p workers.
	SyncTime(kind ExchangeKind, bytesPerWorker int64, p int) float64
	// BroadcastTime prices a root-to-all broadcast of nBytes — the setup
	// epilogue every run pays once (rank 0's weights), not a per-step cost.
	BroadcastTime(nBytes int64, p int) float64
}

// Label implements Pricer for the flat fabric.
func (f Fabric) Label() string { return f.Name }

// BroadcastTime implements Pricer with the binomial-tree law.
func (f Fabric) BroadcastTime(nBytes int64, p int) float64 { return f.Broadcast(nBytes, p) }

var (
	_ Pricer = Fabric{}
	_ Pricer = TwoTier{}
)

// TwoTier is a hierarchical fabric: RanksPerNode workers share a node linked
// by the Intra fabric; node leaders exchange over the Inter fabric.
type TwoTier struct {
	// Name identifies the profile in reports.
	Name string
	// Intra prices the node-local links (the fast tier).
	Intra Fabric
	// Inter prices the cross-node links (the slow tier).
	Inter Fabric
	// RanksPerNode is the node width m; consecutive ranks share a node,
	// mirroring comm.SetTopology. Values <= 1 degenerate to flat Inter.
	RanksPerNode int
}

// NVLinkLocal approximates an intra-node accelerator interconnect:
// ~0.3 µs latency, 200 GB/s.
func NVLinkLocal() Fabric {
	return Fabric{Name: "nvlink", Alpha: 3.0e-7, Beta: 5.0e-12}
}

// TwoTierIB100 is the default hierarchical profile: NVLink-class links
// inside each node of the given width, the paper's 100 Gbps InfiniBand
// between nodes.
func TwoTierIB100(ranksPerNode int) TwoTier { return OnNodes(IB100(), ranksPerNode) }

// TwoTierTCP10G swaps the inter-node tier for commodity 10 GbE, widening
// the intra/inter gap the hierarchical schedules exploit.
func TwoTierTCP10G(ranksPerNode int) TwoTier { return OnNodes(TCP10G(), ranksPerNode) }

// OnNodes is the two-tier pair "nvlink+<flat>": NVLink-class links inside
// nodes of the given width, the flat fabric between them.
func OnNodes(flat Fabric, ranksPerNode int) TwoTier {
	return TwoTier{Name: "nvlink+" + flat.Name, Intra: NVLinkLocal(), Inter: flat, RanksPerNode: ranksPerNode}
}

// flatFabrics is the one table of fabric names. Each flat name also names
// its two-tier pair with an "nvlink+" prefix (OnNodes).
var flatFabrics = map[string]func() Fabric{"ib100": IB100, "tcp10g": TCP10G}

// FlatFabricNames lists the flat fabric names, sorted.
func FlatFabricNames() []string { return slices.Sorted(maps.Keys(flatFabrics)) }

// FabricNames lists every name ParseFabric accepts: the flat fabrics, then
// their "nvlink+" pairs.
func FabricNames() []string {
	names := FlatFabricNames()
	for _, n := range FlatFabricNames() {
		names = append(names, "nvlink+"+n)
	}
	return names
}

// ParseFabric reads a fabric name into its flat (inter-node) tier and
// whether the name asks for the "nvlink+" two-tier pair.
func ParseFabric(name string) (flat Fabric, twoTier bool, err error) {
	base, twoTier := strings.CutPrefix(name, "nvlink+")
	mk, ok := flatFabrics[base]
	if !ok {
		return Fabric{}, false, fmt.Errorf("unknown fabric %q (have %s)", name, strings.Join(FabricNames(), ", "))
	}
	return mk(), twoTier, nil
}

// Label implements Pricer.
func (t TwoTier) Label() string { return t.Name }

// shape clamps the node width to the group and returns (ranks per node,
// node count).
func (t TwoTier) shape(p int) (m, nodes int) {
	m = t.RanksPerNode
	if m > p {
		m = p
	}
	if m < 1 {
		m = 1
	}
	return m, (p + m - 1) / m
}

// HierAllreduce prices the two-level allreduce of an n-byte vector:
// intra-node binomial reduce (⌈log2 m⌉ rounds of n bytes on the fast tier),
// flat allreduce among the node leaders on the slow tier, intra-node
// binomial broadcast.
func (t TwoTier) HierAllreduce(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	m, nodes := t.shape(p)
	if m <= 1 {
		return t.Inter.Allreduce(nBytes, p)
	}
	cost := t.Intra.Broadcast(nBytes, m) // binomial reduce: same tree as broadcast
	cost += t.Inter.Allreduce(nBytes, nodes)
	cost += t.Intra.Broadcast(nBytes, m)
	return cost
}

// HierAllgather prices the two-level allgather where every rank contributes
// nBytes: flat gather into the node leader (m−1 messages of nBytes on the
// fast tier), ring allgather of m·n-byte node blocks among leaders on the
// slow tier, then an intra-node broadcast of the full p·n-byte result.
func (t TwoTier) HierAllgather(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	m, nodes := t.shape(p)
	if m <= 1 {
		return t.Inter.Allgather(nBytes, p)
	}
	cost := float64(m-1) * t.Intra.PointToPoint(nBytes)
	cost += t.Inter.Allgather(nBytes*int64(m), nodes)
	cost += t.Intra.Broadcast(nBytes*int64(p), m)
	return cost
}

// HierAllgatherV prices the variable-length hierarchical allgather: the
// 4-byte length round runs over the same two-level schedule as the data
// rounds, so the latency overhead scales with the node count, not p.
func (t TwoTier) HierAllgatherV(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	return t.HierAllgather(4, p) + t.HierAllgather(nBytes, p)
}

// HierBroadcast prices the two-level broadcast: the root reaches the node
// leaders over the slow tier, each leader fans out locally.
func (t TwoTier) HierBroadcast(nBytes int64, p int) float64 {
	if p <= 1 {
		return 0
	}
	m, nodes := t.shape(p)
	if m <= 1 {
		return t.Inter.Broadcast(nBytes, p)
	}
	return t.Inter.Broadcast(nBytes, nodes) + t.Intra.Broadcast(nBytes, m)
}

// BroadcastTime implements Pricer.
func (t TwoTier) BroadcastTime(nBytes int64, p int) float64 { return t.HierBroadcast(nBytes, p) }

// SyncTime implements Pricer with the hierarchical laws.
func (t TwoTier) SyncTime(kind ExchangeKind, bytesPerWorker int64, p int) float64 {
	switch kind {
	case ExchangeAllgather:
		return t.HierAllgather(bytesPerWorker, p)
	case ExchangeAllgatherV:
		return t.HierAllgatherV(bytesPerWorker, p)
	default:
		return t.HierAllreduce(bytesPerWorker, p)
	}
}
