// Package netsim models the wall-clock cost of collective communication on
// a parameterized network fabric using the classic α–β (latency–bandwidth)
// model: sending an m-byte message costs α + m·β seconds.
//
// The paper's testbed is 16 nodes on 100 Gbps InfiniBand; this repository
// cannot reproduce that hardware, so the benchmark harness instead feeds the
// *actual byte counts* produced by the collective implementations (package
// a2sgd/internal/comm) into this model. The per-collective time laws are
// the standard ones (Thakur, Rabenseifner & Gropp, IJHPCA 2005 — the
// paper's reference [46]) and therefore reproduce exactly the dependency the
// paper's Figures 4–5 measure: how iteration time scales with message
// volume, worker count and the choice of allreduce vs allgather.
//
// # Price laws
//
// Three layers of law build on the α–β primitive:
//
//   - Flat collectives (Fabric): ring and recursive-doubling allreduce,
//     ring allgather, binomial broadcast, and SyncTime selecting by
//     ExchangeKind.
//   - Two-tier laws (TwoTier): hierarchical clusters with fast intra-node
//     links and a slow inter-node network, pricing the two-level schedules
//     of comm.SetTopology (intra-node reduce/gather, leader exchange,
//     intra-node broadcast).
//   - The pipeline law (PriceSchedule): the pipelined and serial makespans
//     of the bucketed encode→collective pipeline, each bucket under its own
//     exchange kind, pricing how much synchronization the training runtime's
//     overlap hides behind local compute.
//
// Fabric and TwoTier both implement Pricer — Label, SyncTime, BroadcastTime:
// what a network is — and PriceSchedule is written once against it, so the
// planner and every modelled-iteration helper
// (cluster.Result.ModeledIterSec*) accept either interchangeably.
package netsim
