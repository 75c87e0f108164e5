// Command freeway runs FreewayML (or any baseline framework) over one of
// the built-in dataset streams and reports prequential metrics:
//
//	freeway -dataset Electricity -model mlp -batch 256
//	freeway -dataset NSL-KDD -system River
//	freeway -dataset SEA -trace decisions.jsonl
//
// -trace writes one JSON line per batch with the full decision record:
// detected pattern, dispatched strategy, shift evidence, window state,
// fusion weights, and per-stage timings (FreewayML runs only).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"freewayml/internal/baselines"
	"freewayml/internal/core"
	"freewayml/internal/datasets"
	"freewayml/internal/metrics"
	"freewayml/internal/model"
	"freewayml/internal/obs"
	"freewayml/internal/stream"
)

func main() {
	var (
		dataset    = flag.String("dataset", "Electricity", "dataset name ("+strings.Join(datasets.Names(), ", ")+")")
		csvPath    = flag.String("csv", "", "run on a CSV file instead (numeric features, integer label last)")
		csvDim     = flag.Int("csv-dim", 0, "feature column count of the CSV")
		csvClasses = flag.Int("csv-classes", 0, "label count of the CSV")
		csvHeader  = flag.Bool("csv-header", true, "CSV has a header row")
		system     = flag.String("system", "FreewayML", "FreewayML | Flink ML | Spark MLlib | Alink | River | Camel | A-GEM | Plain")
		family     = flag.String("model", "mlp", "model family: lr | mlp | cnn3 | cnn5")
		batch      = flag.Int("batch", 256, "mini-batch size")
		maxBatches = flag.Int("max", 0, "cap on batches (0 = full stream)")
		seed       = flag.Int64("seed", 1, "random seed")
		verbose    = flag.Bool("v", false, "print every batch's pattern and strategy")
		tracePath  = flag.String("trace", "", "write per-batch decision traces as JSONL to this file (FreewayML only)")
	)
	flag.Parse()

	src, err := openSource(*dataset, *csvPath, *csvDim, *csvClasses, *csvHeader, *batch, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "freeway:", err)
		os.Exit(1)
	}
	if err := run(src, *system, *family, *batch, *maxBatches, *seed, *verbose, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "freeway:", err)
		os.Exit(1)
	}
}

// openSource builds either a registry dataset or a CSV-backed stream.
func openSource(dataset, csvPath string, csvDim, csvClasses int, csvHeader bool, batch int, seed int64) (stream.Source, error) {
	if csvPath == "" {
		return datasets.Build(dataset, batch, seed)
	}
	if csvDim < 1 || csvClasses < 2 {
		return nil, fmt.Errorf("-csv requires -csv-dim and -csv-classes")
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	// The process exits after the run; the descriptor is released then.
	return datasets.NewCSVStream(csvPath, f, batch, csvDim, csvClasses, csvHeader)
}

func run(src stream.Source, system, family string, batch, maxBatches int, seed int64, verbose bool, tracePath string) error {

	if tracePath != "" && system != "FreewayML" {
		return fmt.Errorf("-trace records FreewayML decisions; it requires -system FreewayML (got %s)", system)
	}

	var preq metrics.Prequential
	strategies := map[string]int{}

	step := func(b stream.Batch) ([]int, error) { return nil, nil }
	var closer func() error

	if system == "FreewayML" {
		cfg := core.DefaultConfig()
		cfg.ModelFamily = family
		cfg.Seed = seed
		cfg.Hyper.Seed = seed
		cfg.Shift.WarmupPoints = 2 * batch
		l, err := core.NewLearner(cfg, src.Dim(), src.Classes())
		if err != nil {
			return err
		}
		closer = l.Close

		var traceW *bufio.Writer
		var observer *core.Observer
		if tracePath != "" {
			f, err := os.Create(tracePath)
			if err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			defer f.Close()
			traceW = bufio.NewWriter(f)
			defer traceW.Flush()
			// The ring only bridges Process to the file write, so a few
			// events of capacity suffice.
			observer = core.NewObserver(obs.NewRegistry(), 4)
			l.SetObserver(observer)
		}
		step = func(b stream.Batch) ([]int, error) {
			res, err := l.Process(context.Background(), b)
			if err != nil {
				return nil, err
			}
			strategies[res.Strategy.String()]++
			if traceW != nil {
				if err := obs.WriteJSONL(traceW, observer.Trace().Last(1)); err != nil {
					return nil, fmt.Errorf("trace: %w", err)
				}
			}
			if verbose {
				fmt.Printf("batch %4d  pattern=%-16s strategy=%-30s acc=%.3f\n",
					b.Seq, res.Pattern, res.Strategy, res.Accuracy)
			}
			return res.Pred, nil
		}
	} else {
		h := model.DefaultHyper()
		h.Seed = seed
		factory, err := model.FactoryFor(family, h)
		if err != nil {
			return err
		}
		fw, err := baselines.Build(system, factory, src.Dim(), src.Classes())
		if err != nil {
			return err
		}
		step = func(b stream.Batch) ([]int, error) {
			pred, err := fw.Infer(b)
			if err != nil {
				return nil, err
			}
			if b.Labeled() {
				if err := fw.Train(b); err != nil {
					return nil, err
				}
			}
			return pred, nil
		}
	}

	for n := 0; maxBatches <= 0 || n < maxBatches; n++ {
		b, ok := src.Next()
		if !ok {
			break
		}
		pred, err := step(b)
		if err != nil {
			return err
		}
		if b.Labeled() {
			acc, err := metrics.Accuracy(pred, b.Y)
			if err != nil {
				return err
			}
			preq.Record(acc, b.Truth, len(b.X))
		}
	}
	if closer != nil {
		if err := closer(); err != nil {
			return err
		}
	}

	fmt.Printf("%s on %s (%s, batch %d)\n", system, src.Name(), family, batch)
	fmt.Printf("  batches: %d   samples: %d\n", preq.Batches(), preq.Samples())
	fmt.Printf("  G_acc:   %.2f%%\n", 100*preq.GAcc())
	fmt.Printf("  SI:      %.3f\n", preq.SI())
	for _, kind := range []stream.DriftKind{stream.KindSlight, stream.KindSudden, stream.KindReoccurring} {
		if acc, n := preq.KindAcc(kind); n > 0 {
			fmt.Printf("  acc[%-11s]: %.2f%% over %d batches\n", kind, 100*acc, n)
		}
	}
	if len(strategies) > 0 {
		fmt.Println("  strategies used:")
		for name, n := range strategies {
			fmt.Printf("    %-32s %d\n", name, n)
		}
	}
	return nil
}
