package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	var b []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// selfCheck does what the acceptance procedure does: ten runs of every
// workload, each at another seed, twice. For each end-to-end metric it
// prints both sets' median and quartile spread (Q3−Q1 over the median) and
// the gap between the medians, and fails if a spread other than setup_s's,
// or a worsening of any median, exceeds the metric's bound. A spread wider
// than the bound means the metric cannot resolve a change of that size here:
// it is reported as unresolved, not as unchanged.
func selfCheck() error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	const runs = 10
	bad := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for seed := 1; seed <= runs; seed++ {
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.Itoa(bf.RunSeconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				r, err := lastLine(out)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !r.Correct {
					return fmt.Errorf("%s seed %d: output checks failed", w.name, seed)
				}
				for name, m := range r.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("%s\n  %-28s %12s %8s %12s %8s %8s %6s\n", w.name, "metric", "median A", "spread", "median B", "spread", "B vs A", "bound")
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			medA, medB := median(a), median(b)
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if (m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound)) || worse > m.Bound {
				verdict = "UNRESOLVED"
				bad++
			}
			fmt.Printf("  %-28s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.1f%% %s\n",
				m.Name, medA, 100*spread(a), medB, 100*spread(b), 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs are outside their bounds", bad)
	}
	return nil
}

// lastLine parses the result object a run prints last.
func lastLine(out []byte) (*result, error) {
	end := len(out)
	for end > 0 && out[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	var r result
	if err := json.Unmarshal(out[start:end], &r); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &r, nil
}
