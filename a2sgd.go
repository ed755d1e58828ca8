// Package a2sgd is the public API of this repository: a from-scratch Go
// implementation of A2SGD — two-level gradient averaging with O(1)
// communication per worker ("O(1) Communication for Distributed SGD through
// Two-Level Gradient Averaging", Bhattacharya, Yu & Chowdhury, CLUSTER
// 2021) — together with the full substrate it is evaluated on: a neural
// network framework, MPI-style collectives, the Dense/Top-K/Gaussian-K/QSGD
// baselines, and a distributed data-parallel training runtime.
//
// # Quick start
//
//	res, err := a2sgd.Train(a2sgd.TrainConfig{
//		Family:  "fnn3",                 // fnn3 | vgg16 | resnet20 | lstm
//		Spec:    "topk(density=0.01)",   // any registered algorithm spec
//		Workers: 8,
//		Epochs:  10,
//	})
//
// # Specs
//
// One string, TrainConfig.Spec, says what synchronizes the gradient. Every
// synchronization algorithm is constructed from a spec with typed, validated
// parameters — "a2sgd", "topk(density=0.01)", "qsgd(levels=8)" — and
// wrappers compose: "periodic(a2sgd, interval=4)" synchronizes only every
// 4th step. Algorithms() lists the registered names, AlgorithmUsage() their
// full signatures, and Register extends the registry with third-party
// compressors.
//
// The same string can choose a spec per gradient bucket when BucketBytes
// partitions the model: "mixed(big=a2sgd, small=dense, threshold=64KiB)"
// compresses the big buckets and leaves the small ones dense, and
// "uniform(spec)" is the plain spec's canonical name (PolicyUsage lists
// both). "auto(…)" hands the whole schedule to the cost-model planner.
//
// The returned Result carries per-epoch accuracy/perplexity, the measured
// compression compute time, the exact per-worker traffic, and helpers that
// price an iteration on a modelled network fabric (the paper's 100 Gbps
// InfiniBand by default).
package a2sgd

import (
	"cmp"
	"fmt"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/compress"
	_ "a2sgd/internal/core" // registers a2sgd and its ablation variants
	"a2sgd/internal/elastic"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/plan"
)

// Algorithm is one gradient-synchronization method (see package
// a2sgd/internal/compress for the interface contract).
type Algorithm = compress.Algorithm

// Options configures algorithm construction.
type Options = compress.Options

// Spec is a parsed algorithm spec — the registry's constructor input.
type Spec = compress.Spec

// Builder registers one algorithm: parameter schema plus constructor.
type Builder = compress.Builder

// ParamSpec declares one accepted spec parameter.
type ParamSpec = compress.ParamSpec

// BuildArgs carries validated spec arguments into a Builder.
type BuildArgs = compress.BuildArgs

// Fabric is an α–β network model used to price synchronization time.
type Fabric = netsim.Fabric

// TwoTier is a hierarchical network model: fast intra-node links, slow
// inter-node links. It prices the Topology two-level schedules.
type TwoTier = netsim.TwoTier

// Pricer is the interface both Fabric and TwoTier satisfy; every
// Result.ModeledIterSec* helper accepts either.
type Pricer = netsim.Pricer

// Schedule is a complete synchronization plan — bucket boundaries,
// per-bucket algorithm specs, topology and overlap — typically emitted by
// BuildSchedule (the cost-model-driven planner) and consumed by
// TrainConfig.Schedule.
type Schedule = plan.Schedule

// PlanOptions configures BuildSchedule: the worker count, the network model
// the plan is priced on, and optional candidate/budget/width pins.
type PlanOptions = plan.Options

// Result is a completed training run.
type Result = cluster.Result

// EpochStats is one epoch's loss and held-out metric.
type EpochStats = cluster.EpochStats

// IB100 returns the paper's 100 Gbps InfiniBand fabric model.
func IB100() Fabric { return netsim.IB100() }

// TCP10G returns a commodity 10 Gbps Ethernet fabric model.
func TCP10G() Fabric { return netsim.TCP10G() }

// TwoTierIB100 returns the default hierarchical network model for nodes of
// the given width: NVLink-class intra-node links, 100 Gbps InfiniBand
// between nodes.
func TwoTierIB100(ranksPerNode int) TwoTier { return netsim.TwoTierIB100(ranksPerNode) }

// TwoTierTCP10G is TwoTierIB100 with commodity 10 GbE between nodes.
func TwoTierTCP10G(ranksPerNode int) TwoTier { return netsim.TwoTierTCP10G(ranksPerNode) }

// Register adds an algorithm to the spec registry under the given name —
// the extension point for third-party compressors. Registered names are
// immediately usable in Spec strings, the CLIs and the bench sweeps.
// It panics on duplicate or invalid names (registration is init-time
// wiring).
func Register(name string, b Builder) { compress.Register(name, b) }

// Parse parses an algorithm spec string ("topk(density=0.01)",
// "periodic(qsgd(levels=8), interval=4)") without building it.
func Parse(src string) (*Spec, error) { return compress.Parse(src) }

// Algorithms lists the registered algorithm names, sorted.
func Algorithms() []string { return compress.Registered() }

// AlgorithmUsage lists every registered algorithm's spec signature
// ("topk(density=float)"), sorted by name.
func AlgorithmUsage() []string { return compress.Usage() }

// PolicyUsage lists the per-bucket policy signatures: mixed(…) and
// uniform(spec).
func PolicyUsage() []string { return compress.PolicyUsage() }

// Lookup returns the registered builder for an algorithm name.
func Lookup(name string) (Builder, bool) { return compress.LookupBuilder(name) }

// EvaluatedAlgorithms lists the five methods of the paper's evaluation in
// figure-legend order.
func EvaluatedAlgorithms() []string { return compress.Evaluated() }

// NewAlgorithm builds an algorithm from a spec string. Options.N must be
// set; spec parameters override the Options defaults.
func NewAlgorithm(spec string, o Options) (Algorithm, error) {
	return compress.ParseBuild(spec, o)
}

// DefaultOptions mirrors the paper's hyperparameters (density 0.001 for the
// sparsifiers, QSGD level 4) for an n-parameter model.
func DefaultOptions(n int) Options { return compress.DefaultOptions(n) }

// TrainConfig configures a distributed training run through the façade.
type TrainConfig struct {
	// Family selects the model: "fnn3", "vgg16", "resnet20", "lstm".
	Family string
	// Spec selects gradient synchronization. It takes one of three forms:
	//
	//   - an algorithm spec, used for every bucket: "a2sgd",
	//     "topk(density=0.01)", "periodic(qsgd(levels=8), interval=4)" (see
	//     Algorithms / AlgorithmUsage);
	//   - a per-bucket policy: "uniform(spec)", the same as the bare spec, or
	//     "mixed(big=a2sgd, small=dense, threshold=64KiB)", which sends
	//     buckets of at least threshold raw bytes to big and the rest to
	//     small. Pair it with BucketBytes: with one whole-model bucket a
	//     policy degenerates to the spec it picks for bucket 0;
	//   - "auto(spec, ..., fabric=name)" (every part optional), which hands
	//     the whole configuration to the cost-model planner: it derives
	//     bucket boundaries, per-bucket specs and, when Topology is unset,
	//     the hierarchy width from the run's price on the fabric (ib100 |
	//     tcp10g | nvlink+ib100 | nvlink+tcp10g; default ib100), and the run
	//     uses the overlapped pipeline. BucketBytes and Topology, when set,
	//     pin those axes.
	//
	// Empty defaults to "a2sgd" unless Schedule is set.
	Spec string
	// Workers is the data-parallel width (default 1).
	Workers int
	// Epochs, StepsPerEpoch, BatchPerWorker bound the run (defaults 1/10/16).
	Epochs, StepsPerEpoch, BatchPerWorker int
	// Seed fixes model init and data (default 1).
	Seed uint64
	// Momentum for the SGD optimizer (Table 1 runs use 0.9).
	Momentum float32
	// TCP runs the worker group over real loopback TCP sockets instead of
	// the in-process channel fabric. Results are identical (the collectives
	// are transport agnostic); this exercises the network stack end to end.
	TCP bool
	// Faults injects deterministic, seeded network faults into the worker
	// group — a faultnet scenario string such as
	//
	//	"delay(link=0-1, alpha=200us, beta=1ns/B) straggler(rank=2, x3) crash(rank=3, step=5)"
	//
	// (see a2sgd/internal/comm/faultnet for the full grammar: delay, bw,
	// loss, dup, reorder, straggler, degrade, crash, stall, preempt, flap,
	// partition, plus the seed/deadline/retry pseudo-rules). A rule naming a
	// rank outside the Workers-rank world is an error, except on a resumed
	// run, whose rules name the ranks of the world it started with. Composes
	// with TCP: faults wrap whichever transport the run uses. Recoverable
	// scenarios perturb timing only — results stay bitwise identical to the
	// fault-free run — while crash/stall scenarios make Train return a
	// step-scoped error within the scenario deadline instead of hanging.
	// Empty disables injection.
	Faults string
	// LRScale multiplies the Table-1 learning-rate schedule (reduced-scale
	// calibration; 0 = default).
	LRScale float64
	// BucketBytes partitions the gradient into layer-granular buckets of at
	// most this many bytes, each with its own algorithm instance (per-bucket
	// error feedback, seeds and A2SGD means) and its own collective. 0 keeps
	// the whole-model single bucket.
	BucketBytes int
	// Overlap pipelines bucket i's synchronization behind the gather+encode
	// of bucket i+1 (DDP-style comm/compute overlap). Results are bitwise
	// identical to the synchronous path for the same bucket plan.
	Overlap bool
	// Concurrency is the number of tag-space contexts the overlap path may
	// use for concurrent bucket exchanges (comm.SetConcurrency, max 8).
	// 0 or 1 keeps the deterministic single-worker mode. Requires Overlap.
	// Per-bucket arithmetic is unchanged, so concurrent runs converge
	// identically; only the wire interleaving differs.
	Concurrency int
	// Interleave launches each bucket's exchange from inside the backward
	// pass as soon as backprop finalizes the bucket's layers (deepest
	// first), hiding synchronization behind the remaining compute as well
	// as behind encode. Requires Overlap.
	Interleave bool
	// Topology is the two-level hierarchy width in ranks per node: when > 1
	// every collective runs intra-node first, then across node leaders,
	// then broadcasts back (comm.SetTopology). Consecutive ranks share a
	// node. 0 or 1 keeps the flat topology. Hierarchical runs are
	// convergence-equivalent to flat runs (float tolerance, not bitwise)
	// and deterministic for a fixed seed.
	Topology int
	// CheckpointEvery delivers a full-state training snapshot every k global
	// steps (in addition to the snapshot at the start of the run), bounding
	// the work lost to a failure. 0 disables periodic snapshots.
	CheckpointEvery int
	// SnapshotPath persists every delivered snapshot to this file in the
	// versioned A2SV format (written atomically: temp file + rename), so a
	// later run can resume from the newest boundary via ResumePath.
	SnapshotPath string
	// ResumePath restores a run from an A2SV snapshot file instead of
	// initializing from Seed. The snapshot's world size wins over Workers;
	// Family, Seed and the step grid must match the snapshot's.
	ResumePath string
	// Schedule runs a pre-planned synchronization schedule (BuildSchedule's
	// output) as is: bucket boundaries, per-bucket specs, topology and
	// overlap all come from the schedule, so Spec, BucketBytes, Overlap and
	// Topology — which are sugar for the schedule Train would otherwise
	// lower them to — must stay unset.
	Schedule *Schedule
}

// Train runs data-parallel training with the configured spec or
// pre-planned schedule and returns rank 0's view of the run. Every
// configuration becomes one Schedule first — the given one, the planner's
// for "auto(…)", or the one the knobs lower to — and cluster.Train runs
// that.
func Train(tc TrainConfig) (*Result, error) {
	cfg, sc, _, err := lower(tc)
	if err != nil {
		return nil, err
	}
	cfg.GroupRunner = faultnet.GroupRunner(sc, tc.TCP)
	return cluster.Train(cfg)
}

// Job is an elastic training job (see a2sgd/internal/elastic).
type Job = elastic.Job

// NewJob lowers tc exactly as Train does into an elastic job; with no
// faults, its Run trains bitwise what Train trains. An "auto(…)" job
// re-plans at every membership epoch's world size, priced on the auto
// fabric's flat tier (DriftModel) until a drift event hands it the measured
// fabric. The caller adds Pool, Drain, BackupSlots and DriftReplan.
func NewJob(tc TrainConfig) (*Job, error) {
	cfg, sc, auto, err := lower(tc)
	if err != nil {
		return nil, err
	}
	job := &Job{Config: cfg, Scenario: sc, TCP: tc.TCP, SnapshotSink: cfg.SnapshotSink}
	job.Config.SnapshotSink = nil // the supervisor forwards every snapshot to job.SnapshotSink
	if auto != nil {
		job.Replan = func(world int, fabric netsim.Fabric) (*Schedule, error) {
			return autoSchedule(tc, auto, world, fabric)
		}
		job.DriftModel = auto.flat
	}
	return job, nil
}

// lower is the one lowering of a TrainConfig, shared by Train and NewJob:
// the cluster configuration with its schedule resolved at the run's world
// (a ResumePath snapshot's wins over Workers), the Faults scenario, and the
// parsed auto spec when the config asks for the planner.
func lower(tc TrainConfig) (cfg cluster.Config, sc *faultnet.Scenario, auto *autoSpec, err error) {
	cfg = cluster.Config{
		Workers:         tc.Workers,
		Family:          tc.Family,
		Epochs:          tc.Epochs,
		StepsPerEpoch:   tc.StepsPerEpoch,
		BatchPerWorker:  tc.BatchPerWorker,
		Seed:            cmp.Or(tc.Seed, 1),
		Momentum:        tc.Momentum,
		LRScale:         tc.LRScale,
		Concurrency:     tc.Concurrency,
		Interleave:      tc.Interleave,
		CheckpointEvery: tc.CheckpointEvery,
	}
	if path := tc.SnapshotPath; path != "" {
		cfg.SnapshotSink = func(rs *cluster.RunState) error {
			return elastic.WriteSnapshotFile(path, rs)
		}
	}
	if tc.ResumePath != "" {
		if cfg.Resume, err = elastic.ReadSnapshotFile(tc.ResumePath); err != nil {
			return cfg, nil, nil, fmt.Errorf("a2sgd: ResumePath: %w", err)
		}
		cfg.Workers = cfg.Resume.World
	}
	// An empty Faults parses to an inactive scenario: the bare fabric.
	if sc, err = faultnet.Parse(tc.Faults); err == nil && tc.ResumePath == "" {
		err = sc.CheckWorld(max(tc.Workers, 1))
	}
	if err != nil {
		return cfg, nil, nil, fmt.Errorf("a2sgd: Faults: %w", err)
	}
	if tc.Schedule != nil {
		if tc.Spec != "" || tc.BucketBytes != 0 || tc.Overlap || tc.Topology != 0 {
			err = fmt.Errorf("a2sgd: Schedule carries the algorithm, bucket, overlap and topology knobs — leave Spec/BucketBytes/Overlap/Topology unset")
		}
		cfg.Schedule = tc.Schedule
		return cfg, sc, nil, err
	}
	src := cmp.Or(tc.Spec, "a2sgd")
	// "auto" is the planner's front door: derive the full schedule from the
	// netsim price instead of lowering the knobs.
	if s, perr := compress.Parse(src); perr == nil && s.Name == "auto" {
		if auto, err = parseAuto(s); err == nil {
			cfg.Schedule, err = autoSchedule(tc, auto, cfg.Workers, auto.flat)
		}
		return cfg, sc, auto, err
	}
	cfg.Schedule, err = cluster.Lower(tc.Family, src, tc.BucketBytes, tc.Topology, tc.Overlap)
	return cfg, sc, nil, err
}

// autoSpec is a parsed "auto(spec, ..., fabric=name)": the planner's
// candidates (none: the paper's evaluated five) and the fabric's flat tier,
// plus whether the name asks for the NVLink two-tier pair.
type autoSpec struct {
	candidates []string
	flat       netsim.Fabric
	twoTier    bool
}

// parseAuto reads auto's arguments: positional candidate specs and one
// optional fabric= key naming a netsim fabric (default ib100).
func parseAuto(s *Spec) (*autoSpec, error) {
	a := &autoSpec{flat: netsim.IB100()}
	for _, arg := range s.Args {
		var err error
		switch arg.Key {
		case "":
			var c *Spec
			if c, err = arg.Value.AsSpec(); err == nil {
				a.candidates = append(a.candidates, c.String())
			}
		case "fabric":
			a.flat, a.twoTier, err = netsim.ParseFabric(arg.Value.String())
		default:
			err = fmt.Errorf("want auto(spec, ..., fabric=name), got %s=…", arg.Key)
		}
		if err != nil {
			return nil, fmt.Errorf("a2sgd: auto: %w", err)
		}
	}
	return a, nil
}

// autoSchedule plans an auto spec at the given world size, priced on flat:
// the auto fabric's flat tier, or a re-planning job's measured fabric. A
// Topology > 1 pins the width and implies the two-tier pair at it, even for
// a flat fabric name; an "nvlink+" fabric with no pinned width lets the
// planner sweep up to 4-slot nodes. BucketBytes pins the bucket budget. Auto
// runs always use the overlapped pipeline (the makespan being minimized).
func autoSchedule(tc TrainConfig, a *autoSpec, world int, flat netsim.Fabric) (*Schedule, error) {
	if world <= 0 {
		world = 1
	}
	o := plan.Options{Workers: world, Pricer: flat, Candidates: a.candidates}
	switch {
	case tc.Topology > 1:
		o.Pricer = netsim.OnNodes(flat, tc.Topology)
		o.RanksPerNode = []int{tc.Topology}
	case a.twoTier:
		o.Pricer = netsim.OnNodes(flat, 4)
	}
	if tc.BucketBytes > 0 {
		o.BucketBudgets = []int{tc.BucketBytes}
	}
	return BuildSchedule(tc.Family, o)
}

// BuildSchedule runs the cost-model planner for a model family: it derives
// the family's parameter segments at reduced scale and asks plan.Build for
// the cheapest modelled schedule — bucket boundaries sized against the
// priced tier, per-bucket specs minimizing the pipelined makespan, and (for
// TwoTier pricers) the cheapest ranks-per-node width.
func BuildSchedule(family string, o PlanOptions) (*Schedule, error) {
	m, err := models.New(models.Config{Family: family, Seed: 1, Reduced: true})
	if err != nil {
		return nil, err
	}
	return plan.Build(m.ParamSegments(), o)
}

// Families lists the evaluation model families (Table 1).
func Families() []string { return models.Families() }

// PaperParamCount returns the Table 1 parameter count for a family.
func PaperParamCount(family string) (int, error) { return models.PaperParamCount(family) }
