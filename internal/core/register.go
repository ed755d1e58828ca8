package core

import (
	"a2sgd/internal/compress"
	"a2sgd/internal/netsim"
)

// A2SGD and its ablation variants self-register into the shared algorithm
// registry, so any binary that links this package can spell them in specs
// ("a2sgd", "periodic(a2sgd, interval=4)", "mixed(big=a2sgd, ...)"). Every
// variant also registers its cost model: the whole local cost — the means
// pass plus the in-place reconstruction pass — measured at ~0.6 ns/element on
// one CPU core with the 256-bit kernels (0.30 + 0.25 at a 4 MiB bucket, the
// hotpath kernel/* rows; 0.38 + 0.30 with two ranks streaming 16 MiB each
// from memory in benchmark/ sync-a2sgd), and the paper's O(1) payload — the
// two signed means, 8 bytes regardless of length.
func init() {
	register := func(name, summary string, kind netsim.ExchangeKind, opts ...Option) {
		compress.Register(name, compress.Builder{
			Summary: summary,
			Build: func(o compress.Options, _ compress.BuildArgs) (compress.Algorithm, error) {
				return New(o.N, opts...), nil
			},
			Cost: func(compress.Options, compress.BuildArgs, []compress.CostModel) compress.CostModel {
				return compress.CostModel{EncSecPerElem: 0.6e-9, FixedBytes: 8, Kind: kind}
			},
		})
	}
	register("a2sgd", "two-level gradient averaging, O(1) communication (the paper)", netsim.ExchangeAllreduce)
	register("a2sgd-noef", "A2SGD ablation: error feedback disabled", netsim.ExchangeAllreduce, WithoutErrorFeedback())
	register("a2sgd-onemean", "A2SGD ablation: single signed mean", netsim.ExchangeAllreduce, WithOneMean())
	register("a2sgd-allgather", "A2SGD with the allgather mean exchange (§4.4)", netsim.ExchangeAllgather, WithAllgather())
}
