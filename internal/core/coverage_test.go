package core

import (
	"context"
	"math/rand"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
)

func TestDetectorAccessor(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Detector() == nil {
		t.Error("Detector() returned nil")
	}
}

func TestDebugAccessors(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	short, long := l.DebugModels()
	if short == nil || long == nil {
		t.Fatal("DebugModels returned nil")
	}
}

func TestCECFallsBackWithoutExperience(t *testing.T) {
	// A learner fed only unlabeled batches has no coherent experience; a
	// detected sudden shift must fall back to the ensemble, not fail.
	cfg := testConfig()
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(44))
	// Warm the detector with labeled batches but expire all experience by
	// feeding unlabeled ones afterward.
	for s := 0; s < 25; s++ {
		b := driftBatch(rng, s, 64, 0, 0, stream.KindNone)
		b.Y = nil
		if _, err := l.Process(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	jump := driftBatch(rng, 25, 64, 60, -40, stream.KindSudden)
	jump.Y = nil
	res, err := l.Process(context.Background(), jump)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy == StrategyCEC {
		t.Error("CEC fired without any labeled experience")
	}
	if len(res.Pred) != 64 {
		t.Errorf("pred len = %d", len(res.Pred))
	}
}

func TestModelNumValidationBounds(t *testing.T) {
	cfg := testConfig()
	cfg.LongEpochs = 0
	if err := cfg.Validate(); err == nil {
		t.Error("LongEpochs 0 should fail validation")
	}
	cfg = testConfig()
	cfg.LongChunk = 0
	if err := cfg.Validate(); err == nil {
		t.Error("LongChunk 0 should fail validation")
	}
}

// TestOneStrategyPerBatchContract drives a full drifting dataset and checks
// the Fig. 8 contract: every batch reports exactly one strategy, and that
// strategy is consistent with the detected pattern (warmup → warmup
// strategy; slight → ensemble; severe → CEC, knowledge, or the documented
// ensemble fallback).
func TestOneStrategyPerBatchContract(t *testing.T) {
	src, err := datasets.Build("Hyperplane", 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	l, err := NewLearner(cfg, src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		res, err := l.Process(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Pattern {
		case shift.PatternWarmup:
			if res.Strategy != StrategyWarmup {
				t.Fatalf("warmup batch used %v", res.Strategy)
			}
		case shift.PatternA, shift.PatternA1, shift.PatternA2:
			if res.Strategy != StrategyEnsemble {
				t.Fatalf("slight batch used %v", res.Strategy)
			}
		case shift.PatternB:
			if res.Strategy != StrategyCEC && res.Strategy != StrategyEnsemble {
				t.Fatalf("sudden batch used %v", res.Strategy)
			}
		case shift.PatternC:
			if res.Strategy != StrategyKnowledge && res.Strategy != StrategyEnsemble {
				t.Fatalf("reoccurring batch used %v", res.Strategy)
			}
		}
		if len(res.Pred) != len(b.X) {
			t.Fatalf("predictions %d for %d samples", len(res.Pred), len(b.X))
		}
	}
}
