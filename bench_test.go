package freewayml

// One benchmark per table and figure of the paper's evaluation, each driving
// the same harness as cmd/benchall at a bench-friendly scale. Regenerate the
// paper-scale numbers with:
//
//	go run ./cmd/benchall -batch 1024
//
// The per-iteration metric reported through b.ReportMetric is the experiment's
// headline number, so `go test -bench=.` doubles as a regression gate on the
// reproduction's shape.

import (
	"testing"

	"freewayml/internal/experiments"
)

// benchOpt drains each dataset's full drift schedule (~145 batches) at a
// small batch size, so every pattern phase is exercised; the heavyweight
// CNN and latency benches override MaxBatches below.
func benchOpt() experiments.Options {
	return experiments.Options{BatchSize: 64, MaxBatches: 0, Seed: 1}
}

func BenchmarkFigure2ShiftGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Streams[0].Correlation, "corr")
	}
}

func BenchmarkTable1Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		accWins, _ := res.FreewayWins("lr")
		b.ReportMetric(float64(accWins), "lr-wins")
	}
}

func BenchmarkTable2PatternImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Reoccurring, "reoccur-gain-pct")
	}
}

func BenchmarkFigure9MechanismSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Series)), "datasets")
	}
}

func BenchmarkFigure10Throughput(b *testing.B) {
	opt := benchOpt()
	opt.MaxBatches = 5
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows["mlp"]["FreewayML"][1024], "samples/s@1024")
	}
}

func BenchmarkFigure11PatternComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		wins, total := res.FreewayWinsSevere()
		b.ReportMetric(float64(wins)/float64(total), "severe-win-rate")
	}
}

func BenchmarkTable3Latency(b *testing.B) {
	opt := benchOpt()
	opt.MaxBatches = 4
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows["lr"]["FreewayML"][512].InferMicros, "lr-infer-us@512")
	}
}

func BenchmarkTable4KnowledgeSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].MLPBytes)/1024, "mlp-kb@k100")
	}
}

func BenchmarkTable5CNN(b *testing.B) {
	opt := benchOpt()
	opt.MaxBatches = 15
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Rows[0].FreewayGAcc, "cnn-gacc-pct")
	}
}

func BenchmarkFigure12CNNSeries(b *testing.B) {
	opt := benchOpt()
	opt.MaxBatches = 15
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Series)), "datasets")
	}
}

func BenchmarkTable6CNNLatency(b *testing.B) {
	opt := benchOpt()
	opt.MaxBatches = 3
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6(opt)
		if err != nil {
			b.Fatal(err)
		}
		overhead := res.Rows[0].FreewayInferMicros / res.Rows[0].PlainInferMicros
		b.ReportMetric(overhead, "infer-overhead-x")
	}
}

// Ablation benches: each design choice DESIGN.md calls out, on/off.

func benchAblation(b *testing.B, row int) {
	opt := benchOpt()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablations("Electricity", opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(res.Rows[row].OnGAcc-res.Rows[row].OffGAcc), "on-minus-off-pts")
	}
}

func BenchmarkAblationASWDecay(b *testing.B)        { benchAblation(b, 0) }
func BenchmarkAblationEnsemble(b *testing.B)        { benchAblation(b, 1) }
func BenchmarkAblationKnowledgePolicy(b *testing.B) { benchAblation(b, 2) }

// BenchmarkAblationCEC compares coherent experience clustering against a
// nearest-centroid-only mapping on a sudden-shift-heavy stream via the
// public API (CEC engaged vs a single-point experience buffer that starves
// it).
func BenchmarkAblationCEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := runPublic(b, 256)
		starved := runPublic(b, 1)
		b.ReportMetric(100*(full-starved), "cec-gain-pts")
	}
}

func runPublic(b *testing.B, expBuffer int) float64 {
	b.Helper()
	src, err := OpenDataset("Hyperplane", 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ExpBuffer = expBuffer
	l, err := New(cfg, src.Dim(), src.Classes())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for n := 0; n < 60; n++ {
		batch, ok := src.Next()
		if !ok {
			break
		}
		if _, err := l.ProcessBatch(batch.X, batch.Y); err != nil {
			b.Fatal(err)
		}
	}
	return l.Stats().GAcc
}

// Micro-benchmarks of the hot paths.

func BenchmarkLearnerProcess(b *testing.B) {
	src, err := OpenDataset("Electricity", 256, 1)
	if err != nil {
		b.Fatal(err)
	}
	l, err := New(DefaultConfig(), src.Dim(), src.Classes())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	batch, _ := src.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ProcessBatch(batch.X, batch.Y); err != nil {
			b.Fatal(err)
		}
	}
}
