// Package compress defines the gradient-synchronization algorithm interface
// shared by every method the paper evaluates, implements the baselines —
// dense SGD, Top-K and Gaussian-K sparsification (with error feedback and
// allgather exchange) and QSGD quantization (with real bit-packing) — and
// hosts the algorithm registry, the spec grammar and the per-bucket policy
// layer that the public façade exposes.
//
// The paper's own contribution, two-level gradient averaging (A2SGD), lives
// in package a2sgd/internal/core, implements the same interface and
// self-registers into the registry here.
//
// # Encode / Exchange
//
// Every algorithm is split into two phases, mirroring how the paper
// accounts computation (Figure 2) separately from communication
// (Figures 4–5):
//
//   - Encode: the purely local computation on the gradient — selection,
//     quantization, or mean extraction — including error-feedback updates.
//   - Exchange: the collective communication that turns per-worker payloads
//     into the globally synchronized gradient.
//
// Exchange receives a comm.Communicator and calls its collectives
// (AllreduceMean, Allgather, AllgatherV); it is therefore agnostic to the
// transport (in-process channels or TCP) and to the topology — on a
// communicator configured with comm.SetTopology the same Exchange runs the
// two-level hierarchical schedule unchanged.
//
// # Payload ownership
//
// Encode is allocation-free in steady state: selection heaps, quantization
// word buffers and payload slices live on the algorithm instance and are
// recycled across calls. Consequently a Payload's Data aliases instance
// scratch and is valid only until the next Encode on the same instance —
// callers that need a payload to survive longer copy Data explicitly, and
// distinct instances (e.g. Bucketed's per-bucket algorithms) never share
// scratch. See ARCHITECTURE.md "Memory discipline & hot path".
//
// # The spec grammar
//
// Algorithms are named and parameterized by a small spec grammar:
//
//	spec  := name [ '(' args ')' ]
//	args  := arg { ',' arg }
//	arg   := [ name '=' ] value
//	value := spec | scalar
//
// Names and scalars are runs of letters, digits and the characters
// ._+- ; whitespace is insignificant. Keyed arguments are typed parameters
// validated against the registered schema (int, finite float, string);
// positional arguments are inner algorithm specs for wrappers. Examples:
//
//	dense
//	topk(density=0.01)
//	qsgd(levels=8)
//	periodic(qsgd(levels=8), interval=4)
//
// Byte sizes (mixed's threshold) accept B / KiB / MiB / GiB (binary) and
// KB / MB / GB (decimal) suffixes: "64KiB" is 65536. A size must be finite
// and fit in an int64.
//
// Parse turns a string into a Spec; Spec.String renders the canonical form
// (a round trip is the identity); CheckSpec validates a tree against the
// registry without constructing; Build constructs the algorithm, with spec
// parameters overriding the Options defaults.
//
// # The registry
//
// Register(name, Builder) adds an algorithm: its one-line summary, its
// parameter schema ([]ParamSpec), its wrapper arity (Wraps) and its
// constructor. This package registers the baselines and the periodic
// wrapper in an init function; package core registers a2sgd and its
// ablation variants the same way; third-party compressors follow the same
// path and immediately become spellable in specs, policies, the CLIs and
// the bench sweeps. Unknown-name errors list every registered signature
// (Usage), so the error message is the API's documentation of record.
//
// # Policies
//
// A Policy chooses a spec per gradient bucket from the bucket's metadata
// (BucketInfo: index, element count, raw bytes). There are two, written in
// the same grammar with algorithm specs as argument values:
//
//	uniform(a2sgd)
//	mixed(big=a2sgd, small=dense, threshold=64KiB)
//
// uniform applies one spec everywhere; mixed splits on a raw-byte-size
// threshold (big buckets get the compressed spec, the tiny tail stays
// dense). The set is closed: BuildPolicy switches over the two names, and
// PolicyUsage lists their signatures. A bare algorithm spec is accepted
// wherever a policy is expected and means uniform(spec).
//
// "auto(dense, topk(density=0.01), a2sgd)" is not a policy: choosing specs
// by modelled encode+collective cost also chooses bucket boundaries and
// topology, which is a2sgd/internal/plan's job (every registered algorithm
// carries a CostModel next to its Builder for it), so BuildPolicy rejects
// it and points at a2sgd.TrainConfig.Spec. Policies are pure functions of
// BucketInfo and validate every referenced spec at construction, so
// policy-driven runs are deterministic per seed and cannot fail
// mid-training.
//
// # Composition
//
// Bucketed composes per-bucket instances over a contiguous partition of
// the gradient (the unit of the training runtime's overlapped pipeline) —
// under a mixing policy its buckets run different algorithms, and
// ExchangeKinds reports each bucket's collective for the netsim price
// laws. It is a per-bucket runner, not an Algorithm: the runtime drives
// bucket b through EncodeBucketView / ExchangeBucketView on a view of that
// bucket's gradient storage. Periodic wraps any algorithm with round
// reduction (synchronize every k-th step) and implements Algorithm itself,
// so it nests inside any spec or bucket.
package compress
