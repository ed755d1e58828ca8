package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"a2sgd/internal/cluster"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/netsim"
)

// ChaosConfig bounds the fault-injection harness runs.
type ChaosConfig struct {
	// Family, Workers, Epochs, Steps configure each training run (defaults
	// fnn3 / 4 / 1 / 4). Workers below 4 are raised to 4 — the partition and
	// hierarchy scenarios need two groups of two.
	Family                 string
	Workers, Epochs, Steps int
	// Seed fixes both the training run and every fault scenario's RNG.
	Seed uint64
	// TCP runs the faulted groups over loopback TCP instead of the
	// in-process fabric.
	TCP bool
}

// ChaosCase is one scenario of the chaos matrix.
type ChaosCase struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	// Recoverable scenarios must complete with the exact final weights of
	// the fault-free run; unrecoverable ones must fail within the deadline.
	Recoverable bool    `json:"recoverable"`
	Err         string  `json:"err,omitempty"`
	WallSec     float64 `json:"wall_sec"`
	// BitwiseEqual reports whether the final weights matched the fault-free
	// baseline bit for bit (recoverable scenarios only).
	BitwiseEqual bool `json:"bitwise_equal,omitempty"`
	// PredictedSlowdownSec / MeasuredSlowdownSec compare the run's extra
	// wall time under injected α–β delay against the netsim price law for
	// the same α–β parameters (delay scenarios only; report-only — the
	// measured value carries scheduler noise).
	PredictedSlowdownSec float64 `json:"predicted_slowdown_sec,omitempty"`
	MeasuredSlowdownSec  float64 `json:"measured_slowdown_sec,omitempty"`
	// Pass is the per-case verdict: completion + bitwise equality for
	// recoverable scenarios, a timely typed failure for unrecoverable ones.
	Pass bool `json:"pass"`
}

// ChaosReport aggregates one chaos-matrix run.
type ChaosReport struct {
	Workers         int         `json:"workers"`
	BaselineWallSec float64     `json:"baseline_wall_sec"`
	Cases           []ChaosCase `json:"cases"`
	Failures        int         `json:"failures"`
}

func (c *ChaosConfig) defaults() ChaosConfig {
	cfg := *c
	if cfg.Family == "" {
		cfg.Family = "fnn3"
	}
	if cfg.Workers < 4 {
		cfg.Workers = 4
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	return cfg
}

// chaosRun trains the harness's representative configuration — the a2sgd
// algorithm on the bucketed overlap pipeline — under one fault scenario
// ("" = fault-free) and returns the result and the wall time.
func chaosRun(cfg ChaosConfig, scenario string, topology int, overlap bool) (*cluster.Result, time.Duration, error) {
	sched, err := cluster.Lower(cfg.Family, "a2sgd", 8192, topology, overlap)
	if err != nil {
		return nil, 0, err
	}
	cc := cluster.Config{
		Workers: cfg.Workers, Family: cfg.Family, Schedule: sched,
		Epochs: cfg.Epochs, StepsPerEpoch: cfg.Steps, Seed: cfg.Seed,
	}
	if scenario != "" {
		sc, err := faultnet.Parse(scenario)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: chaos scenario %q: %w", scenario, err)
		}
		cc.GroupRunner = faultnet.GroupRunner(sc, cfg.TCP)
	}
	start := time.Now()
	res, err := cluster.Train(cc)
	return res, time.Since(start), err
}

// chaosScenario is one row of the seeded scenario matrix.
type chaosScenario struct {
	name     string
	scenario string
	topology int // 0 = flat
	// predict prices the scenario's per-run slowdown on the netsim law that
	// models the injected α–β parameters, from the fault-free baseline's
	// recorded per-bucket payloads (nil = no prediction).
	predict func(base *cluster.Result, steps, p int) float64
}

// predictSlowdown prices one run's communication on the given network model:
// steps × the serial per-bucket sync of the run's recorded payloads, plus the
// setup-broadcast and final dense-allreduce epilogues — each priced under its
// own collective's law (the broadcast is a ⌈log2 p⌉-round tree, not an
// allreduce, and the dense allreduce follows the runtime's length cutover).
// The faulted inproc fabric's only cost IS the injected α–β sleep, so this is
// the whole wall-clock slowdown the scenario should add to a fault-free run.
func predictSlowdown(pr netsim.Pricer, base *cluster.Result, steps, p int) float64 {
	kinds := base.BucketExchangeKinds
	var perStep float64
	for b, bb := range base.BucketPayloadBytes {
		k := base.ExchangeKind
		if b < len(kinds) {
			k = kinds[b]
		}
		perStep += pr.SyncTime(k, bb, p)
	}
	dense := int64(4 * base.NumParams)
	epilogue := pr.BroadcastTime(dense, p) + pr.SyncTime(netsim.ExchangeAllreduce, dense, p)
	return float64(steps)*perStep + epilogue
}

// chaosMatrix builds the seeded scenario matrix. Every scenario string gets
// the harness seed prepended so the per-link fault RNG streams are fixed.
func chaosMatrix(cfg ChaosConfig) []chaosScenario {
	// The injected α–β delay scenarios mirror these fabric parameters; the
	// prediction prices the same collectives the run performs under the
	// matching netsim law (flat Fabric for a uniform delay, TwoTier with a
	// free intra tier for a leader-link-only delay).
	delayed := netsim.Fabric{Name: "injected", Alpha: 300e-6, Beta: 4e-9}
	predictFlat := func(base *cluster.Result, steps, p int) float64 {
		return predictSlowdown(delayed, base, steps, p)
	}
	crossNode := netsim.TwoTier{
		Name:  "injected-inter",
		Inter: netsim.Fabric{Name: "injected", Alpha: 200e-6, Beta: 2e-9},
		// Intra stays zero: only the leader link is faulted.
		RanksPerNode: 2,
	}
	predictTwoTier := func(base *cluster.Result, steps, p int) float64 {
		return predictSlowdown(crossNode, base, steps, p)
	}
	return []chaosScenario{
		{name: "delay-ab", scenario: "delay(link=*, alpha=300us, beta=4ns/B)", predict: predictFlat},
		{name: "jitter", scenario: "delay(link=*, alpha=50us, jitter=100us)"},
		{name: "bandwidth", scenario: "bw(link=*, mbps=250)"},
		{name: "dup", scenario: "dup(link=*, p=0.3)"},
		{name: "reorder", scenario: "reorder(link=*, p=0.3)"},
		{name: "loss", scenario: "loss(link=*, p=0.1, resend=500us)"},
		{name: "straggler", scenario: "straggler(rank=1, x2)"},
		{name: "flap-retry", scenario: "flap(rank=1, period=30ms, duty=0.7)"},
		{name: "partition-retry", scenario: "partition(groups=0-1|2-3, after=10ms, dur=15ms)"},
		{name: "hier-inter-delay", scenario: "delay(link=0-2, alpha=200us, beta=2ns/B)", topology: 2, predict: predictTwoTier},
		{name: "crash", scenario: "deadline(500ms) crash(rank=3, step=2)"},
		{name: "stall", scenario: "deadline(400ms) stall(rank=2, step=2)"},
	}
}

// Chaos runs the seeded chaos matrix: every recoverable scenario must train
// to final weights bitwise identical to the fault-free baseline (fault
// injection perturbs timing, never arithmetic), every unrecoverable scenario
// must surface a step-scoped error within its deadline instead of hanging,
// and the α–β delay scenarios report measured against netsim-predicted
// slowdown. A non-nil error means the harness itself could not run; matrix
// verdicts land in the report (Failures counts the cases that missed their
// contract).
func Chaos(w io.Writer, c ChaosConfig) (*ChaosReport, error) {
	cfg := c.defaults()
	rep := &ChaosReport{Workers: cfg.Workers}

	// Fault-free baselines: one per topology the matrix uses. The overlap
	// pipeline is deterministic, so a single baseline run per topology pins
	// the reference weights.
	type baseline struct {
		res  *cluster.Result
		wall time.Duration
	}
	baselines := map[int]baseline{}
	for _, topo := range []int{0, 2} {
		res, wall, err := chaosRun(cfg, "", topo, true)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos baseline (topology=%d): %w", topo, err)
		}
		if len(res.FinalParams) == 0 {
			return nil, fmt.Errorf("bench: chaos baseline produced no final weights")
		}
		baselines[topo] = baseline{res: res, wall: wall}
	}
	rep.BaselineWallSec = baselines[0].wall.Seconds()

	for _, s := range chaosMatrix(cfg) {
		sc := faultnet.MustParse(fmt.Sprintf("seed(%d) %s", cfg.Seed, s.scenario))
		cse := ChaosCase{Name: s.name, Scenario: sc.String(), Recoverable: sc.Recoverable()}
		res, wall, err := chaosRun(cfg, cse.Scenario, s.topology, true)
		cse.WallSec = wall.Seconds()
		base := baselines[s.topology]
		if err != nil {
			cse.Err = err.Error()
		}
		if cse.Recoverable {
			cse.BitwiseEqual = err == nil && sameBits(res.FinalParams, base.res.FinalParams)
			cse.Pass = cse.BitwiseEqual
			if s.predict != nil {
				cse.PredictedSlowdownSec = s.predict(base.res, cfg.Epochs*cfg.Steps, cfg.Workers)
				cse.MeasuredSlowdownSec = (wall - base.wall).Seconds()
			}
		} else {
			// Unrecoverable: a typed failure, and promptly. The bound allows
			// one deadline per in-flight collective phase plus teardown.
			limit := base.wall + 5*sc.Deadline + 2*time.Second
			cse.Pass = err != nil && wall <= limit
		}
		if !cse.Pass {
			rep.Failures++
		}
		rep.Cases = append(rep.Cases, cse)
	}

	if w != nil {
		fmt.Fprintf(w, "chaos matrix: %d workers, %d×%d steps, seed %d, baseline %.1f ms\n",
			cfg.Workers, cfg.Epochs, cfg.Steps, cfg.Seed, rep.BaselineWallSec*1000)
		rows := make([][]string, 0, len(rep.Cases))
		for _, cse := range rep.Cases {
			verdict := "PASS"
			if !cse.Pass {
				verdict = "FAIL"
			}
			kind := "recoverable"
			detail := fmt.Sprintf("bitwise=%v", cse.BitwiseEqual)
			if !cse.Recoverable {
				kind = "unrecoverable"
				detail = "failed fast"
				if cse.Err == "" {
					detail = "no error!"
				}
			}
			if cse.PredictedSlowdownSec > 0 {
				detail += fmt.Sprintf(" Δpred=%.1fms Δmeas=%.1fms",
					cse.PredictedSlowdownSec*1000, cse.MeasuredSlowdownSec*1000)
			}
			rows = append(rows, []string{
				cse.Name, kind, fmt.Sprintf("%.1f", cse.WallSec*1000), detail, verdict,
			})
		}
		table(w, []string{"scenario", "kind", "wall ms", "detail", "verdict"}, rows)
		for _, cse := range rep.Cases {
			if !cse.Pass {
				fmt.Fprintf(w, "FAIL %s (%s): err=%s\n", cse.Name, cse.Scenario, cse.Err)
			}
		}
	}
	if rep.Failures > 0 {
		names := make([]string, 0, rep.Failures)
		for _, cse := range rep.Cases {
			if !cse.Pass {
				names = append(names, cse.Name)
			}
		}
		return rep, fmt.Errorf("bench: chaos: %d scenario(s) missed their contract: %s",
			rep.Failures, strings.Join(names, ", "))
	}
	return rep, nil
}
