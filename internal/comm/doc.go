// Package comm implements the collective-communication substrate the paper
// relies on (Horovod/MPI in the original evaluation): point-to-point
// transports and the classic collective algorithms built on top of them —
// ring and recursive-doubling allreduce, ring allgather (including the
// variable-size allgatherv that sparse gradient exchange needs), binomial
// broadcast and reduce, the rooted gather of the two-level schedules, and a
// barrier.
//
// # Transports
//
// Two transports implement the same Transport interface: an in-process
// channel fabric (this package; deterministic and fast, the default for
// experiments) and a real TCP loopback fabric (package
// a2sgd/internal/comm/tcpnet) used to validate that the collectives run
// unchanged over an actual network stack. Collectives are written once
// against the Transport interface, so a run on either fabric performs the
// same message sequence.
//
// # Nonblocking operations and concurrency modes
//
// Every Communicator owns lazily-started progress workers (one goroutine per
// tag-space context, mirroring MPI progress threads) that execute posted
// operations: Post takes a typed Op — whose RunOp issues its collectives on
// the context communicator it is handed — and returns a Request whose Wait
// blocks until completion. In the default Deterministic mode —
// SetConcurrency(1) — a single worker runs operations strictly in posting
// order, so the floating-point reduction order — and therefore the numerical
// result — is identical to issuing the same operations synchronously; the
// training runtime exploits this to overlap bucket i's collective with
// bucket i+1's gather+encode while staying bitwise deterministic.
// SetConcurrency(n>1) adds n-1 duplicates of the communicator — derived
// groups with the identity rank map — in disjoint tag-space contexts (the
// top four tag bits): posted operations are distributed to
// contexts round-robin by posting sequence — deterministically, so every
// rank routes the k-th post to the same tag block — and operations in
// different contexts proceed concurrently on the wire. Each collective's
// arithmetic is unchanged (its operands and reduction order are private to
// its context), so concurrent runs still reproduce the serial results
// bitwise; only the wire interleaving differs.
//
// Contract: all ranks post the same operation sequence under the same
// concurrency setting; no blocking collectives while posts are outstanding
// (Wait first). Requests are pooled — posting draws from a freelist and the
// first Wait recycles the request, so a Request belongs to one waiter and
// its error is readable only until the communicator reuses the request for
// a later post. A steady-state post/Wait cycle touches the allocator zero
// times (see the AllocsPerRun tests). AllgatherVInto gathers through a
// caller-owned AllgatherVScratch so concurrent sparse exchanges reuse their
// buckets' buffers instead of contending on communicator-owned scratch.
//
// # Group communicators and two-level topologies
//
// Split partitions a communicator's ranks into disjoint sub-groups,
// MPI_Comm_split-style; each group is a full Communicator over the parent's
// fabric with translated ranks and a private tag space. SetTopology builds
// on two Splits to teach a communicator a two-level (intra-node +
// inter-node) cluster shape: consecutive runs of ranksPerNode ranks form a
// node, and AllreduceSum/AllreduceMean, Allgather, AllgatherV and Broadcast
// transparently switch to hierarchical schedules (node-local reduce or
// gather, an exchange among node leaders, node-local broadcast). The
// schedules cross the slow inter-node tier once per node instead of once
// per rank; callers — including the nonblocking requests and every
// compression algorithm — are unchanged. Hierarchical results match flat
// ones to float tolerance (the reduction order differs) and are fully
// deterministic for a fixed seed and topology.
//
// # Memory discipline
//
// The collectives are allocation-free in steady state: each Communicator
// owns one reduction scratch buffer grown to its high-water size (blocking
// collectives never overlap on a communicator), sendRecv reuses a
// persistent error channel and skips its helper goroutine entirely on
// transports that implement BufferedTransport, and the inproc fabric
// recycles transit buffers through a pool — Send clones into a pooled
// buffer, Recv copies into the caller-provided destination and returns the
// buffer. AllreduceMean's 1/P costs no pass of its own on the flat ring: the
// rank that owns a segment scales it inside its last reduce-scatter add,
// block by block while the block is in cache, so the allgather ships final
// values (recursive doubling and the hierarchical schedule, whose vectors
// are short or whose tiers differ, sum first and scale after). AllocsPerRun
// tests pin a warm AllreduceMean at zero allocations; see ARCHITECTURE.md
// "Memory discipline & hot path".
//
// # Ring reduction order
//
// The flat ring allreduce (AlgoRing, and AlgoAuto at 4096 elements or more,
// on a communicator without a topology) computes every element in one
// written order, on every fabric and at any concurrency. Segment j of an
// n-element vector is elements j·n/P up to (j+1)·n/P. Its sum starts as
// rank j's values and takes rank (j+k) mod P's for k = 1…P−1, each as one
// float32 add acc = x + acc. Rank (j−1) mod P completes it — for
// AllreduceMean it then multiplies by float32(1/P), one more float32
// rounding — and the allgather copies that rank's bits to every other rank.
// The mean's bits are therefore those of AllreduceSum followed by
// tensor.Scale(v, 1/P): the same product rounds the same on any rank.
// ring_oracle_test.go holds both collectives to a naive reference of this
// order, bit for bit.
//
// # Recursive-doubling order
//
// Recursive doubling (AlgoRecursiveDoubling, and AlgoAuto below 4096
// elements, on a communicator without a topology) also has one written order.
// Let pow2 be the largest power of two ≤ P and rem = P − pow2. The fold: for
// i < rem, rank 2i+1 sends its vector to rank 2i, which takes v = v + partner,
// one float32 add per element, and continues as new rank i; rank q ≥ 2·rem
// continues as new rank q − rem. The mask rounds: for mask = 1, 2, …, pow2/2,
// new rank n exchanges with new rank n XOR mask and takes v = v + partner.
// Float32 addition commutes, so both partners of a round hold the same bits
// and every active rank ends with new rank 0's vector. The unfold: rank 2i
// sends it to rank 2i+1. AllreduceMean then multiplies every element by
// float32(1/P), one more rounding. ring_oracle_test.go holds both collectives
// to a naive reference of this order, bit for bit.
//
// # Two-level order
//
// Under SetTopology(k), node j is ranks jk up to (j+1)k, and its first rank is
// the leader. AllreduceSum and AllreduceMean then run four phases. First, a
// binomial reduce into the leader: for mask = 1, 2, 4, …, a node rank with the
// mask bit set sends its vector to node rank − mask and stops, and the others
// take v = v + partner from node rank + mask where it exists. Second, the
// leaders, in node order, run AllreduceSum among themselves in the order the
// caller's algorithm picks for a flat group of that size (AlgoAuto by length).
// Third, each leader broadcasts the bits to its node. Fourth, AllreduceMean
// multiplies by float32(1/P), P the whole group, once. internal/core's
// Algorithm 1 reference (algorithm1_test.go) follows this order, and the
// training runtime is held to it bit for bit.
//
// # Failure contract: deadlines, retry, typed errors
//
// Transport failures surface as *PeerError values carrying the peer rank, the
// operation ("send"/"recv"), a Timeout flag, and two delivery promises: a
// Transient error had no stream effect — no bytes moved, so retrying the same
// call verbatim is safe — while a non-transient error may have left a partial
// frame on the wire and poisons the stream (tcpnet latches it and fails every
// later operation on that link). Deadlines are opt-in: tcpnet's
// Config.IOTimeout arms a per-operation I/O deadline (zero keeps the
// historical blocking semantics), and a Recv that expires cleanly while
// waiting for a frame header is non-sticky — the stream stays usable.
// SetRetry installs a bounded exponential-backoff RetryPolicy around the
// communicator's point-to-point calls; only transient errors are retried, and
// the healthy path pays a single branch (zero allocations — the AllocsPerRun
// tests cover the retry-wrapped path too). WaitAll drains every outstanding
// request even after the first failure — no goroutine or pooled request is
// leaked — and returns the joined errors, so a failed step tears down
// fail-fast with every rank's view preserved. The cluster runtime wraps such
// failures step-scoped ("cluster: step 7 sync: rank 2: ..."), and the
// faultnet package (a2sgd/internal/comm/faultnet) exercises this whole
// contract with deterministic injected faults.
//
// # Traffic accounting
//
// Every Communicator keeps per-rank traffic counters (payload bytes sent and
// received, message counts), aggregated over any group communicators it
// spawned; the benchmark harness feeds those counters into the α–β network
// model (package a2sgd/internal/netsim) to reproduce the paper's
// iteration-time figures.
package comm
