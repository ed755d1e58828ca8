// Package health turns the send timing the runtime already produces into
// rank health classifications and measured network fabrics.
//
// A Monitor holds one preallocated sample ring per directed link. Each
// rank's Recorder writes one kind of sample, piggybacked on work the runtime
// does anyway and allocation-free: ObserveSend(to, bytes, sec), the
// sender-side wall time of one point-to-point payload (comm send path, via
// Communicator.SetSendObserver; group/context communicators translate their
// local peer labels to global ranks first).
//
// Classify fits each directed link with a robust Theil–Sen α–β estimate
// (median pairwise slopes, median residual) and flags links whose α is an
// outlier past ratio, MAD and absolute-gap gates against a lower-quartile
// baseline (one straggler slows up to half the links, so the median is not a
// safe baseline). Because a slow host slows every
// link touching it while synchronous collectives smear the stall across all
// ranks' step clocks, the straggler is localized as the unique common
// endpoint of the slow-link set — not by per-rank wall time. A rank that
// stops altogether is not the monitor's to report: the elastic supervisor
// classifies only after a segment paused at a boundary every rank reached,
// and a dead peer surfaces as a *comm.PeerError instead.
//
// MeasuredFabric condenses the link fits into a netsim.Fabric (worst-link α
// and β, matching the slowest-link bound of synchronous collectives) that
// plan.Build can price on directly; Drift compares such a measured fabric
// against the planner's model in both the latency and bandwidth regimes
// (taking the conservative minimum, so β-fit noise alone cannot fake drift)
// and lets elastic.Job trigger re-planning when the real network diverges
// from the priced one.
package health
