// Command benchall regenerates every table and figure of the paper's
// evaluation. Run it with no flags for the full sweep, or select one
// experiment:
//
//	benchall -experiment table1 -batch 256 -max 80
//
// Experiments: table1, table2, table3, table4, table5, table6, fig2, fig9,
// fig10, fig11, fig12, ablation, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"freewayml/internal/experiments"
)

// main delegates to run so profile-flushing defers fire before the process
// exits with run's status code.
func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run")
		batch      = flag.Int("batch", 256, "mini-batch size (paper uses 1024)")
		maxBatches = flag.Int("max", 0, "cap on batches per stream (0 = full stream)")
		seed       = flag.Int64("seed", 1, "random seed")
		ablationDS = flag.String("ablation-dataset", "Hyperplane", "dataset for the ablation sweep")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchall: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchall: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchall: memprofile: %v\n", err)
			}
		}()
	}

	opt := experiments.Options{BatchSize: *batch, MaxBatches: *maxBatches, Seed: *seed}

	type runner struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	runners := []runner{
		{"fig2", func() (fmt.Stringer, error) { return experiments.Figure2(opt) }},
		{"table1", func() (fmt.Stringer, error) { return experiments.Table1(opt) }},
		{"table2", func() (fmt.Stringer, error) { return experiments.Table2(opt) }},
		{"fig9", func() (fmt.Stringer, error) { return experiments.Figure9(opt) }},
		{"fig10", func() (fmt.Stringer, error) { return experiments.Figure10(opt) }},
		{"fig11", func() (fmt.Stringer, error) { return experiments.Figure11(opt) }},
		{"table3", func() (fmt.Stringer, error) { return experiments.Table3(opt) }},
		{"table4", func() (fmt.Stringer, error) { return experiments.Table4(opt) }},
		{"table5", func() (fmt.Stringer, error) { return experiments.Table5(opt) }},
		{"fig12", func() (fmt.Stringer, error) { return experiments.Figure12(opt) }},
		{"table6", func() (fmt.Stringer, error) { return experiments.Table6(opt) }},
		{"ablation", func() (fmt.Stringer, error) { return experiments.Ablations(*ablationDS, opt) }},
	}

	ran := false
	for _, r := range runners {
		if *experiment != "all" && *experiment != r.name {
			continue
		}
		ran = true
		res, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchall: %s: %v\n", r.name, err)
			return 1
		}
		fmt.Println(res.String())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchall: unknown experiment %q\n", *experiment)
		return 2
	}
	return 0
}
