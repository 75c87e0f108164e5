// Command benchmark is FreewayML's one repeatable performance harness. It
// runs a frozen closed-loop workload against the tree's own binaries (or,
// for learn_drift, against the library in-process), checks the outputs, and
// prints the end-to-end metrics — or, with -trace 1, the per-layer metrics
// and a layer table — as one JSON object on the last line of stdout.
//
// benchmark/run.sh builds everything and is the command BENCHMARK.json
// names; see benchmark/README.md for the definitions.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one reported metric. The regression bounds live in
// BENCHMARK.json only; a test keeps the two lists in step.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"samples_per_s", "rows/s"},
	{"train_p50_ms", "ms"},
	{"train_p95_ms", "ms"},
	{"infer_p50_ms", "ms"},
	{"cpu_us_per_sample", "us/row"},
	{"peak_rss_mb", "MiB"},
	{"g_acc", "fraction"},
	{"si", "fraction"},
	{"setup_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the harness settings shared by every mode.
type options struct {
	seed      int64
	seconds   float64
	trace     bool
	binDir    string   // where freeway-serve and freeway-router were built
	outDir    string   // trace files and scratch space
	serveArgs []string // ad-hoc extra freeway-serve flags (never set by BENCHMARK.json)
	smoke     bool     // one set-up with a tenth of the warm-up: checks outputs, measures nothing
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (empty runs all four in turn)")
		seed      = flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds   = flag.Float64("seconds", 24, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1 runs the traced quarter-length variant and prints the per-layer metrics")
		smoke     = flag.Bool("smoke", false, "half-second pass over all four workloads: outputs checked, numbers meaningless")
		repeat    = flag.Int("repeat", 0, "with -compare: runs per set")
		compare   = flag.Bool("compare", false, "run two alternating sets of -repeat full runs and compare them against the bounds in BENCHMARK.json")
		binDir    = flag.String("bin", "", "directory holding freeway-serve and freeway-router (default: next to this binary)")
		outDir    = flag.String("out", "benchmark/out", "directory for trace files and scratch space")
		serveArgs = flag.String("serve-flags", "", "extra freeway-serve flags, space separated, for ad-hoc audits of opt-in paths")
		updateRef = flag.String("update-reference", "", "write this run's g_acc/si into the given reference.json instead of checking them")
	)
	flag.Parse()
	if *binDir == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		*binDir = filepath.Dir(exe)
	}
	opts := options{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		binDir: *binDir, outDir: *outDir, serveArgs: strings.Fields(*serveArgs), smoke: *smoke,
	}
	if err := os.MkdirAll(filepath.Join(opts.outDir, "tmp"), 0o755); err != nil {
		fatal(err)
	}
	if *compare {
		if err := runCompare(*repeat, *seed, *seconds, *name, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	if *smoke {
		opts.seconds = 0.5
	}
	names := []string{*name}
	if *name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, n := range names {
		w, err := findWorkload(n)
		if err != nil {
			fatal(err)
		}
		res, err := runWorkload(w, opts, *updateRef)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", n, err))
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload is one run: set up (several times, for a steady setup_s),
// measure, check, tear down.
func runWorkload(w *workload, opts options, updateRef string) (result, error) {
	if opts.trace {
		return runTraced(w, opts)
	}
	var r *runner
	var setups []float64
	repeats := setupRepeats
	if opts.smoke {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, err
			}
		}
		start := time.Now()
		var err error
		var slow float64
		if r, slow, err = setup(w, opts, false); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds()/slow)
	}
	d := time.Duration(opts.seconds * float64(time.Second))
	var ph phaseResult
	if w.topo == topoInProcess {
		ph = r.learnPhase(d, 0, numSlices, false, true)
	} else {
		ph = r.servedPhase(d, nil, numSlices, false, true)
	}
	closeErr := r.close()

	gAcc, si, scoredAll := r.quality()
	res := result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metricValue{}}
	values, perSlice := sliceQuartiles(ph)
	sutUse, harnessUse := ph.usageDelta()
	values["peak_rss_mb"] = sutUse.peakRSSMB
	values["g_acc"], values["si"] = gAcc, si
	values["setup_s"] = median(setups)
	fmt.Printf("%s seed=%d: %d requests (%d rows) in %.2fs, %d failed; harness CPU share %.1f%%\n",
		w.name, opts.seed, ph.attempted, ph.rows(), ph.wall.Seconds(), ph.failed, 100*harnessShare(w, sutUse, harnessUse))
	fmt.Printf("  host slowdown %.3f (1 = uncontended; time-based metrics are in uncontended-host time), raw %.0f rows/s; per slice %.3g\n",
		ph.slowdown(), float64(ph.rows())/ph.wall.Seconds(), perSlice["host_slowdown"])
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		fmt.Printf("  %-18s %14.6g %-8s", m.name, values[m.name], m.unit)
		if vs := perSlice[m.name]; vs != nil {
			fmt.Printf(" quartile of slices %.4g", vs)
		}
		fmt.Println()
	}

	problems := r.problems(ph.attempted, ph.failed, closeErr)
	switch {
	case !scoredAll || len(opts.serveArgs) > 0:
		fmt.Fprintf(os.Stderr, "benchmark: %s: run too short or servers reconfigured; g_acc/si not checked\n", w.name)
	case updateRef != "":
		if err := writeReference(updateRef, w.name, opts.seed, gAcc, si); err != nil {
			return res, err
		}
	default:
		if err := checkReference(w.name, opts.seed, gAcc, si); err != nil {
			problems = append(problems, err.Error())
		}
	}
	res.judge(w.name, problems)
	return res, nil
}

// problems lists what makes any kind of run incorrect: failed operations, an
// error a client or a usage reading noted, a child process that died early.
func (r *runner) problems(attempted, failed int, closeErr error) []string {
	var problems []string
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed", failed, attempted))
	}
	if err := r.err(); err != nil {
		problems = append(problems, err.Error())
	}
	if closeErr != nil {
		problems = append(problems, closeErr.Error())
	}
	return problems
}

// judge sets the verdict and reports every problem on stderr.
func (res *result) judge(workload string, problems []string) {
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: INCORRECT: %s\n", workload, p)
	}
}

// harnessShare is the load generator's share of all CPU burnt in a phase;
// the in-process workload has no separate generator.
func harnessShare(w *workload, sutUse, harnessUse usage) float64 {
	if w.topo == topoInProcess {
		return 0
	}
	return harnessUse.cpuSec / (harnessUse.cpuSec + sutUse.cpuSec)
}

// quality is G_acc (Eq. 15) and SI (Eq. 16) over each stream's first
// scoreLimit labelled batches of the timed phase, each stream's value
// weighted by its samples. complete reports whether every stream got that
// far; only then are the two comparable with the reference.
func (r *runner) quality() (gAcc, si float64, complete bool) {
	var samples float64
	complete = true
	for i := range r.preq {
		complete = complete && r.preq[i].Batches() == r.scoreLimit(i)
		n := float64(r.preq[i].Samples())
		gAcc += n * r.preq[i].GAcc()
		si += n * r.preq[i].SI()
		samples += n
	}
	if samples == 0 {
		return 0, 0, false
	}
	return gAcc / samples, si / samples, complete
}

// qualityTolerance is how far g_acc and si may sit from the reference.
const qualityTolerance = 0.005

//go:embed reference.json
var referenceJSON []byte

// quality is one reference entry.
type quality struct {
	GAcc float64 `json:"g_acc"`
	SI   float64 `json:"si"`
}

// reference maps workload → seed → the expected quality of the timed phase.
type reference map[string]map[string]quality

// checkReference compares g_acc and si with the committed reference for
// this workload and seed. Learning is deterministic, so they are expected
// to match exactly; a seed without a reference is not checked.
func checkReference(workload string, seed int64, gAcc, si float64) error {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	want, ok := ref[workload][fmt.Sprint(seed)]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: %s: no quality reference for seed %d; g_acc/si not checked\n", workload, seed)
		return nil
	}
	if math.Abs(gAcc-want.GAcc) > qualityTolerance || math.Abs(si-want.SI) > qualityTolerance {
		return fmt.Errorf("quality drifted from reference: g_acc %.6f (want %.6f), si %.6f (want %.6f)",
			gAcc, want.GAcc, si, want.SI)
	}
	return nil
}

// writeReference merges this run's quality into the reference file at path.
func writeReference(path, workload string, seed int64, gAcc, si float64) error {
	ref := reference{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if ref[workload] == nil {
		ref[workload] = map[string]quality{}
	}
	ref[workload][fmt.Sprint(seed)] = quality{GAcc: gAcc, SI: si}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
