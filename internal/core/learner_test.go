package core

import (
	"context"
	"math/rand"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
)

// testConfig returns a config tuned for small, fast test streams.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Shift.WarmupPoints = 128
	cfg.Shift.HistoryK = 10
	cfg.Shift.MinSeverityHistory = 4
	cfg.Shift.RecentExclusion = 3
	cfg.Window.MaxBatches = 4
	cfg.Window.MaxItems = 1 << 20
	cfg.Hyper.Hidden = 16
	return cfg
}

// driftBatch draws a labeled batch of two separable classes centered at c.
func driftBatch(rng *rand.Rand, seq, n int, cx, cy float64, kind stream.DriftKind) stream.Batch {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := rng.Intn(2)
		x[i] = []float64{
			cx + float64(c)*2 + rng.NormFloat64()*0.3,
			cy + rng.NormFloat64()*0.3,
			rng.NormFloat64() * 0.3,
		}
		y[i] = c
	}
	return stream.Batch{Seq: seq, X: x, Y: y, Truth: kind}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ModelFamily = "" },
		func(c *Config) { c.ModelNum = 1 },
		func(c *Config) { c.KdgBuffer = 0 },
		func(c *Config) { c.ExpBufferPoints = 0 },
		func(c *Config) { c.ExpBufferAge = -1 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Beta = 2 },
		func(c *Config) { c.Sigma = 0 },
		func(c *Config) { c.Hyper.LR = 0 },
		func(c *Config) { c.Window.MaxBatches = 0 },
		func(c *Config) { c.Shift.HistoryK = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if _, err := NewLearner(Config{}, 3, 2); err == nil {
		t.Error("NewLearner with zero config should error")
	}
}

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{
		StrategyWarmup:    "warmup",
		StrategyEnsemble:  "multi-granularity",
		StrategyCEC:       "coherent-experience-clustering",
		StrategyKnowledge: "knowledge-reuse",
		Strategy(9):       "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestWarmupThenEnsemble(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(1))

	res, err := l.Process(context.Background(), driftBatch(rng, 0, 64, 0, 0, stream.KindNone))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyWarmup {
		t.Fatalf("first batch strategy = %v", res.Strategy)
	}
	for s := 1; s < 10; s++ {
		res, err = l.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone))
		if err != nil {
			t.Fatal(err)
		}
	}
	if res.Strategy != StrategyEnsemble {
		t.Fatalf("stationary batch strategy = %v, want ensemble", res.Strategy)
	}
	if !res.Pattern.IsSlight() {
		t.Errorf("stationary pattern = %v", res.Pattern)
	}
	if res.Accuracy < 0 {
		t.Error("labeled batch should report accuracy")
	}
	if l.Metrics().Batches() == 0 {
		t.Error("metrics not recorded")
	}
}

func TestLearnsStationaryStream(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(2))
	var last Result
	for s := 0; s < 40; s++ {
		res, err := l.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone))
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if last.Accuracy < 0.9 {
		t.Errorf("accuracy after 40 batches = %v", last.Accuracy)
	}
}

func TestSuddenShiftTriggersCEC(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < 24; s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
	}
	// Streams are continuous: the batch preceding the jump already carries
	// a tail of the incoming distribution (the coherence hypothesis CEC
	// relies on). Blend one.
	pre := driftBatch(rng, 24, 64, 0, 0, stream.KindNone)
	tail := driftBatch(rng, 24, 64, 60, -40, stream.KindNone)
	for i := 44; i < 64; i++ {
		pre.X[i] = tail.X[i]
		pre.Y[i] = tail.Y[i]
	}
	if _, err := l.Process(context.Background(), pre); err != nil {
		t.Fatal(err)
	}
	res, err := l.Process(context.Background(), driftBatch(rng, 25, 64, 60, -40, stream.KindSudden))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern != shift.PatternB {
		t.Fatalf("jump pattern = %v (M=%.1f)", res.Pattern, res.Observation.Severity)
	}
	if res.Strategy != StrategyCEC {
		t.Fatalf("jump strategy = %v, want CEC", res.Strategy)
	}
	if len(res.Pred) != 64 {
		t.Errorf("pred len = %d", len(res.Pred))
	}
}

func TestReoccurringShiftUsesKnowledge(t *testing.T) {
	cfg := testConfig()
	cfg.Window.MaxBatches = 3 // close windows quickly so knowledge exists
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(4))
	seq := 0
	// Home regime: long enough for several window closes → knowledge saved.
	for s := 0; s < 30; s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	if l.KnowledgeStore().Len() == 0 {
		t.Fatal("no knowledge preserved during home regime")
	}
	// Away regime.
	for s := 0; s < 12; s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 50, 40, stream.KindSudden)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	// Return home: Pattern C with knowledge reuse.
	res, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindReoccurring))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern != shift.PatternC {
		t.Fatalf("return pattern = %v (M=%.1f dh=%.2f dt=%.2f)", res.Pattern,
			res.Observation.Severity, res.Observation.NearestHistory, res.Observation.Distance)
	}
	if res.Strategy != StrategyKnowledge {
		t.Fatalf("return strategy = %v, want knowledge", res.Strategy)
	}
	// The restored model was trained on the home regime: accuracy must be
	// far above chance immediately.
	if res.Accuracy < 0.8 {
		t.Errorf("knowledge-reuse accuracy = %v", res.Accuracy)
	}
}

func TestModelNumThreeGranularities(t *testing.T) {
	cfg := testConfig()
	cfg.ModelNum = 3
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	grans := l.ens.Granularities()
	if len(grans) != 2 {
		t.Fatalf("grans = %d, want 2 fixed-frequency models", len(grans))
	}
	if grans[0].Every != 1 || grans[1].Every != 2 {
		t.Errorf("frequencies = %d, %d", grans[0].Every, grans[1].Every)
	}
	rng := rand.New(rand.NewSource(7))
	var last Result
	for s := 0; s < 40; s++ {
		res, err := l.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone))
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if last.Accuracy < 0.85 {
		t.Errorf("3-granularity accuracy = %v", last.Accuracy)
	}
}

func TestUnlabeledBatchesInferOnly(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(8))
	for s := 0; s < 10; s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
	}
	trainedBatches := l.Metrics().Batches()
	b := driftBatch(rng, 10, 64, 0, 0, stream.KindNone)
	b.Y = nil
	res, err := l.Process(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != -1 {
		t.Errorf("unlabeled accuracy = %v, want -1", res.Accuracy)
	}
	if l.Metrics().Batches() != trainedBatches {
		t.Error("unlabeled batch recorded in metrics")
	}
	if len(res.Pred) != 64 {
		t.Errorf("pred len = %d", len(res.Pred))
	}
}

func TestProcessRejectsInvalidBatch(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Process(context.Background(), stream.Batch{}); err == nil {
		t.Error("empty batch should error")
	}
}

func TestSubPatternRefinement(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(9))
	var last Result
	for s := 0; s < 30; s++ {
		res, err := l.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone))
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if last.Pattern.IsSlight() {
		if last.SubPattern != shift.PatternA1 && last.SubPattern != shift.PatternA2 {
			t.Errorf("slight SubPattern = %v", last.SubPattern)
		}
	}
}

func TestFullPipelineOnDataset(t *testing.T) {
	// End-to-end smoke over a real generated dataset, all strategies armed.
	src, err := datasets.Build("Electricity", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SpillDir = t.TempDir()
	l, err := NewLearner(cfg, src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	strategies := map[Strategy]int{}
	for i := 0; i < 80; i++ {
		b, ok := src.Next()
		if !ok {
			break
		}
		res, err := l.Process(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		strategies[res.Strategy]++
	}
	if strategies[StrategyEnsemble] == 0 {
		t.Error("ensemble never used")
	}
	if l.Metrics().GAcc() < 0.5 {
		t.Errorf("G_acc = %v", l.Metrics().GAcc())
	}
}
