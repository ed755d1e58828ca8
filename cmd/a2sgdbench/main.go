// Command a2sgdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	a2sgdbench -experiment all                 # everything (slow)
//	a2sgdbench -experiment fig2 -maxn 100000000
//	a2sgdbench -experiment fig3 -workers 2,4,8,16 -epochs 10
//	a2sgdbench -experiment fig4 -scale 1       # paper-scale gradients
//	a2sgdbench -experiment table2
//	a2sgdbench -experiment sweep -buckets 0,2048,8192
//	a2sgdbench -experiment sweep -workers 8 -topology 1,2,4 -buckets 0,8192
//	a2sgdbench -experiment sweep -buckets 4096,16384 \
//	    -algos "a2sgd,mixed(big=a2sgd, small=dense, threshold=8KiB)"
//	a2sgdbench -experiment auto -scale 10      # cost-model planner vs hand-tuned
//	a2sgdbench -experiment auto -json results.json
//	a2sgdbench -experiment chaos -chaostcp     # the fault matrix over loopback TCP
//
// -json writes every executed experiment's structured results (including the
// auto sweep's modelled-vs-chosen plan prices) to a file, so the perf
// trajectory can be tracked across commits; "-" writes to stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"a2sgd/internal/bench"
	"a2sgd/internal/compress"
	"a2sgd/internal/netsim"
)

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// splitSpecs cuts a comma-separated list of specs at parenthesis depth 0, so
// the commas of a spec's own argument list stay inside it. Entries are
// trimmed and empty ones (a trailing comma) dropped; unbalanced parentheses
// are left for the grammar to report.
func splitSpecs(s string) []string {
	var out []string
	depth, start := 0, 0
	emit := func(end int) {
		if e := strings.TrimSpace(s[start:end]); e != "" {
			out = append(out, e)
		}
		start = end + 1
	}
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth <= 0 {
				emit(i)
			}
		}
	}
	emit(len(s))
	return out
}

// experiments names every experiment main runs, in run order; "all" runs
// them all.
var experiments = []string{
	"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "table2",
	"ablation", "sweep", "auto", "chaos", "hotpath", "all",
}

func main() {
	exp := flag.String("experiment", "all", strings.Join(experiments, "|"))
	maxN := flag.Int("maxn", 25_000_000, "largest parameter count for fig2")
	scale := flag.Int("scale", 10, "divide paper parameter counts by this for fig4/fig5/table2/auto (1 = full)")
	workersFlag := flag.String("workers", "2,4,8,16", "worker counts for fig3/fig4/fig5")
	epochs := flag.Int("epochs", 8, "epochs for fig1/fig3")
	steps := flag.Int("steps", 12, "steps per epoch for fig3")
	fabricName := flag.String("fabric", "ib100", "flat network model the iteration model prices: "+strings.Join(netsim.FlatFabricNames(), "|"))
	bucketsFlag := flag.String("buckets", "0,2048,8192,32768", "bucket byte budgets for the sweep (0 = whole model)")
	topologyFlag := flag.String("topology", "1,2,4", "ranks-per-node widths for the sweep (1 = flat)")
	algosFlag := flag.String("algos", "",
		"algorithm specs for the sweep and auto experiments, comma separated outside parentheses (default: the paper's five-method set) — registered: "+
			strings.Join(compress.Usage(), ", ")+"; the sweep also takes per-bucket policies: "+strings.Join(compress.PolicyUsage(), "; "))
	chaosSeed := flag.Uint64("chaosseed", 11, "scenario + training seed for the chaos matrix")
	chaosTCP := flag.Bool("chaostcp", false, "run the chaos matrix, references included, over loopback TCP instead of the in-process fabric")
	jsonPath := flag.String("json", "", "write executed experiments' structured results as JSON to this file (\"-\" = stdout)")
	comparePath := flag.String("compare", "",
		"compare the hotpath run against the newest entry of this BENCH_hotpath.json trajectory file; exit nonzero on regression")
	compareTol := flag.Float64("comparetol", 10, "regression tolerance for -compare, percent on ns/op (allocs/op must not grow at all)")
	flag.Parse()
	if !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "bad -experiment: unknown experiment %q (have %s)\n", *exp, strings.Join(experiments, ", "))
		os.Exit(2)
	}

	algos := splitSpecs(*algosFlag)

	workers, err := parseInts(*workersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -workers:", err)
		os.Exit(2)
	}
	// The iteration model prices a flat fabric: the nvlink+ pairs are out.
	fabric, twoTier, err := netsim.ParseFabric(*fabricName)
	if err != nil || twoTier {
		fmt.Fprintf(os.Stderr, "bad -fabric: unknown flat fabric %q (have %s)\n", *fabricName, strings.Join(netsim.FlatFabricNames(), ", "))
		os.Exit(2)
	}

	w := os.Stdout
	results := map[string]any{}
	run := func(name string, f func() (any, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Fprintf(w, "\n================ %s ================\n", name)
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if out != nil {
			results[name] = out
		}
	}

	run("table1", func() (any, error) { return nil, bench.Table1(w) })
	run("fig1", func() (any, error) {
		return bench.Figure1(w, *epochs, 20, true)
	})
	run("fig2", func() (any, error) {
		sizes := []int{1_000_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000, 100_000_000}
		var trimmed []int
		for _, s := range sizes {
			if s <= *maxN {
				trimmed = append(trimmed, s)
			}
		}
		return bench.Figure2(w, trimmed, 2)
	})
	run("fig3", func() (any, error) {
		return bench.Figure3(w, bench.Figure3Config{
			Workers: workers, Epochs: *epochs, Steps: *steps,
		})
	})

	var iterModel *bench.IterModel
	needIter := func() error {
		if iterModel == nil {
			m, err := bench.NewIterModel(fabric, *scale, nil)
			if err != nil {
				return err
			}
			iterModel = m
		}
		return nil
	}
	run("fig4", func() (any, error) {
		if err := needIter(); err != nil {
			return nil, err
		}
		return bench.Figure4(w, iterModel, workers), nil
	})
	run("fig5", func() (any, error) {
		if err := needIter(); err != nil {
			return nil, err
		}
		return bench.Figure5(w, iterModel, workers), nil
	})
	run("table2", func() (any, error) {
		if err := needIter(); err != nil {
			return nil, err
		}
		return bench.Table2(w, iterModel), nil
	})
	run("ablation", func() (any, error) {
		wk := 4
		if len(workers) > 0 {
			wk = workers[0]
		}
		return bench.Ablation(w, wk, *epochs)
	})
	run("sweep", func() (any, error) {
		bucketBytes, err := parseInts(*bucketsFlag)
		if err != nil {
			return nil, fmt.Errorf("bad -buckets: %w", err)
		}
		rpns, err := parseInts(*topologyFlag)
		if err != nil {
			return nil, fmt.Errorf("bad -topology: %w", err)
		}
		wk := 4
		if len(workers) > 0 {
			wk = workers[0]
		}
		return bench.Sweep(w, bench.SweepConfig{
			Workers: wk, Epochs: *epochs, Steps: *steps,
			Policies: algos, BucketBytes: bucketBytes, RanksPerNode: rpns, Inter: fabric,
		})
	})
	run("auto", func() (any, error) {
		// The planner study is modelled, not trained, so it can afford the
		// widest configured worker count — the narrow ones collapse the
		// two-tier pair onto a single node and hide the topology choice.
		wk := 8
		if len(workers) > 0 {
			wk = workers[0]
			for _, p := range workers[1:] {
				if p > wk {
					wk = p
				}
			}
		}
		return bench.AutoSweep(w, bench.AutoSweepConfig{
			Workers: wk, ParamScale: *scale, Specs: algos,
			TrainFamily: "fnn3", Epochs: *epochs, Steps: *steps,
		})
	})

	run("chaos", func() (any, error) {
		// Seeded fault matrix: fault injection, elastic recovery and
		// straggler tolerance. Recoverable rows must train bitwise to their
		// reference, crash/stall must fail within their deadline, and the
		// α–β delay rows report measured vs netsim-predicted slowdown.
		return bench.Chaos(w, bench.ChaosConfig{Seed: *chaosSeed, TCP: *chaosTCP})
	})

	var hotRep *bench.HotPathReport
	run("hotpath", func() (any, error) {
		// Steady-state ns/op + allocs/op of the zero-allocation hot path.
		// `a2sgdbench -experiment hotpath -json BENCH_hotpath.json` is how
		// the per-PR perf trajectory file is regenerated (CI uploads it);
		// `-compare BENCH_hotpath.json` gates against its newest entry.
		rep, err := bench.HotPath(w)
		hotRep = rep
		return rep, err
	})

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
	}

	if *comparePath != "" {
		if hotRep == nil {
			fmt.Fprintln(os.Stderr, "-compare requires the hotpath experiment to run (use -experiment hotpath or all)")
			os.Exit(2)
		}
		base, err := bench.LoadHotPathBaseline(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\n================ hotpath compare ================\n")
		if n := bench.CompareHotPath(w, hotRep, base, *compareTol); n > 0 {
			os.Exit(1)
		}
	}
}
