package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the repeatability tool reads.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare is the repeatability study: two alternating sets of n runs per
// workload of this same binary, run i of either set on seed+i. It applies
// the rule the benchmark is accepted by: per metric × workload, each set's
// spread (the distance between its quartiles as a share of its median) must
// stay within the metric's bound, except setup_s, and the second set's
// median must not be worse than the first's by more than the bound. It
// returns an error when any pairing fails.
func runCompare(n int, seed int64, seconds float64, only, outDir string) error {
	if n < 2 {
		return errors.New("-compare needs -repeat of at least 2")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][set][metric] collects one value per run.
	values := map[string][2]map[string][]float64{}
	for _, w := range bf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values[w.Name] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range bf.Workloads {
				sets, ok := values[w.Name]
				if !ok {
					continue
				}
				// A fresh process per run, as the acceptance runs are.
				cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed+int64(i)),
					"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s run %d of set %d: %w", w.Name, i, set+1, err)
				}
				// Keep the run's log: its per-slice values explain an outlier.
				log := filepath.Join(outDir, fmt.Sprintf("compare_set%d_run%02d_%s.txt", set+1, i+1, w.Name))
				if err := os.WriteFile(log, out, 0o644); err != nil {
					return err
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s: result line: %w", w.Name, err)
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s run %d of set %d: incorrect, %d failed operations", w.Name, i, set+1, res.Failed)
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "compare: set %d run %d/%d %s done\n", set+1, i+1, n, w.Name)
			}
		}
	}

	fmt.Printf("repeatability: 2 alternating sets of %d runs, seeds %d..%d, %g s each\n", n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-16s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "gap", "bound", "verdict")
	failed := 0
	for _, w := range bf.Workloads {
		sets, ok := values[w.Name]
		if !ok {
			continue
		}
		for _, m := range bf.EndToEnd {
			var med, spread [2]float64
			for set := range sets {
				v := sets[set][m.Name]
				q1, q3 := quartiles(v)
				med[set] = median(v)
				spread[set] = (q3 - q1) / med[set]
			}
			// gap > 0 means the second set is worse.
			gap := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			if gap > m.Bound || (m.Name != "setup_s" && max(spread[0], spread[1]) > m.Bound) {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-16s %-18s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				w.Name, m.Name, med[0], med[1], 100*spread[0], 100*spread[1], 100*gap, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric × workload pairings outside their bound", failed)
	}
	return nil
}
