package core

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"freewayml/internal/obs"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
	"freewayml/internal/stream"
)

// TestObserverTraceAndMetrics drives a home → away → return-home stream so
// every mechanism fires, then checks the decision trace and the exported
// series tell the same story.
func TestObserverTraceAndMetrics(t *testing.T) {
	cfg := testConfig()
	cfg.Window.MaxBatches = 3
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	o := NewObserver(reg, 256)
	l.SetObserver(o)

	rng := rand.New(rand.NewSource(4))
	seq := 0
	processed := 0
	step := func(cx, cy float64, kind stream.DriftKind) Result {
		res, err := l.Process(context.Background(), driftBatch(rng, seq, 64, cx, cy, kind))
		if err != nil {
			t.Fatal(err)
		}
		seq++
		processed++
		return res
	}
	for s := 0; s < 30; s++ {
		step(0, 0, stream.KindNone)
	}
	for s := 0; s < 12; s++ {
		step(50, 40, stream.KindSudden)
	}
	res := step(0, 0, stream.KindReoccurring)
	if res.Pattern != shift.PatternC || res.Strategy != StrategyKnowledge {
		t.Fatalf("return batch: pattern=%v strategy=%v, want C/knowledge", res.Pattern, res.Strategy)
	}

	ring := o.Trace()
	if ring.Len() != processed {
		t.Fatalf("trace ring holds %d events, processed %d", ring.Len(), processed)
	}
	ev := ring.Last(1)[0]
	if ev.Pattern != "C(reoccurring)" || ev.Strategy != "knowledge-reuse" {
		t.Errorf("newest event pattern=%q strategy=%q", ev.Pattern, ev.Strategy)
	}
	if !ev.KnowledgeChecked || !ev.KnowledgeHit || ev.KnowledgeDistance < 0 {
		t.Errorf("knowledge evidence missing: %+v", ev)
	}
	if len(ev.EnsembleWeights) == 0 {
		t.Error("knowledge-reuse event has no fusion weights")
	}
	if ev.Accuracy < 0 {
		t.Error("labeled batch recorded no accuracy")
	}
	// Every event names its mechanism and carries stage timings.
	for _, e := range ring.Last(0) {
		if e.Strategy == "" {
			t.Fatalf("batch %d event has no strategy", e.Batch)
		}
		stages := map[string]bool{}
		for _, s := range e.Stages {
			if s.Micros < 0 {
				t.Fatalf("batch %d stage %s negative duration", e.Batch, s.Stage)
			}
			stages[s.Stage] = true
		}
		for _, want := range []string{strategy.StageGuard, strategy.StageShiftDetect, strategy.StagePredict, strategy.StageShortUpdate} {
			if !stages[want] {
				t.Fatalf("batch %d event missing stage %q (has %v)", e.Batch, want, e.Stages)
			}
		}
	}

	if reg.NumSeries() < 12 {
		t.Errorf("registry has %d series, want >= 12", reg.NumSeries())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"freeway_batches_total " + strconv.Itoa(processed),
		`freeway_stage_seconds_count{stage="shift_detect"} ` + strconv.Itoa(processed),
		"freeway_process_seconds_count " + strconv.Itoa(processed),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, series := range []string{
		`freeway_pattern_total{pattern="C"}`,
		`freeway_pattern_total{pattern="B"}`,
		`freeway_strategy_total{strategy="knowledge-reuse"}`,
		`freeway_knowledge_lookups_total{result="hit"}`,
		"freeway_window_closes_total",
		"freeway_knowledge_preserves_total",
	} {
		if v := seriesValue(t, body, series); v <= 0 {
			t.Errorf("series %s = %v, want > 0", series, v)
		}
	}
}

// seriesValue extracts one sample's value from an exposition body.
func seriesValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("series %s: bad value in %q: %v", series, line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", series)
	return 0
}

// TestObserverRejectedBatch checks the guard-reject verdict is traced and
// counted without advancing the batch counter.
func TestObserverRejectedBatch(t *testing.T) {
	cfg := testConfig()
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	reg := obs.NewRegistry()
	o := NewObserver(reg, 8)
	l.SetObserver(o)

	rng := rand.New(rand.NewSource(9))
	b := driftBatch(rng, 0, 16, 0, 0, stream.KindNone)
	b.X[3][1] = math.NaN()
	if _, err := l.Process(context.Background(), b); err == nil {
		t.Fatal("NaN batch accepted under reject policy")
	}
	last := o.Trace().Last(1)
	if len(last) != 1 || !last[0].GuardRejected || last[0].Pattern != "rejected" {
		t.Fatalf("rejection not traced: %+v", last)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "freeway_guard_rejected_batches_total 1") {
		t.Error("rejected counter not exported")
	}
	if strings.Contains(sb.String(), "freeway_batches_total 1") {
		t.Error("rejected batch counted as processed")
	}
}
