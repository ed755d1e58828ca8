// Package plan closes the loop between the cost model and the training
// runtime: it turns netsim's α–β price laws from a reporting tool into the
// thing that chooses the configuration. Build takes a model's parameter
// segments, a netsim.Pricer, a worker count and the compress registry's
// per-spec cost models, and emits a complete Schedule — bucket boundaries
// sized so the priced tier's per-collective latency is amortized, a
// per-bucket algorithm spec chosen by minimizing the modelled pipelined
// makespan, and, for a two-tier fabric pair, the cheapest ranks-per-node
// width. It is what the façade's "auto(spec, ...)" request runs: the
// positional specs become Options.Candidates.
//
// The search is deterministic and exhaustive over a bounded candidate set:
// every candidate topology × bucket-budget ladder × spec assignment
// (each uniform assignment plus the per-bucket greedy one) is priced with
// netsim.PriceSchedule, and the cheapest pipelined makespan wins, ties
// keeping the earliest candidate. Because the uniform assignments are in
// the candidate set, an auto-planned schedule is never modelled slower than
// the best hand-tuned uniform configuration over the same grid.
//
// Lower writes down, without pricing anything, the Schedule a hand-picked
// configuration (policy + bucket budget + topology + overlap) denotes. A
// Schedule is the only thing cluster.Train accepts, so the two functions are
// the two ways in: planned or lowered.
//
// Dataflow:
//
//	nn.ParamSegments ──┐
//	netsim.Pricer ─────┼─▶ plan.Build ─┐
//	compress.SpecCost ─┘               ├─▶ plan.Schedule ─▶ cluster.Config.Schedule
//	policy · bucket budget ·           │         │
//	topology · overlap ───▶ plan.Lower ┘         └─▶ bounds · per-bucket specs ·
//	                                                 topology · overlap · price
package plan
