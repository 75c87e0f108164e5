package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"freewayml/internal/cluster"
	"freewayml/internal/knowledge"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
	"freewayml/internal/stream"
)

func TestCheckpointRoundtripPreservesBehaviour(t *testing.T) {
	cfg := testConfig()
	cfg.Window.MaxBatches = 3
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	// Drive through multiple regimes so the knowledge store, detector
	// history, and experience buffer all carry state.
	seq := 0
	for s := 0; s < 30; s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	for s := 0; s < 10; s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 8, 8, stream.KindSudden)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	if l.KnowledgeStore().Len() == 0 {
		t.Fatal("no knowledge before checkpoint")
	}

	var buf bytes.Buffer
	if err := l.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// The restored learner must predict identically on a probe batch: same
	// short/long weights, same detector projection, same pattern verdict.
	probe := driftBatch(rng, seq, 64, 8, 8, stream.KindNone)
	probe.Y = nil
	// Rebuild the original learner from the same checkpoint so both sides
	// share identical state (the original kept evolving its detector above).
	original, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer original.Close()
	if err := original.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	r1, err := original.Process(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := restored.Process(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Pattern != r2.Pattern || r1.Strategy != r2.Strategy {
		t.Errorf("diverged: %v/%v vs %v/%v", r1.Pattern, r1.Strategy, r2.Pattern, r2.Strategy)
	}
	for i := range r1.Pred {
		if r1.Pred[i] != r2.Pred[i] {
			t.Fatal("restored learner predicts differently")
		}
	}
	if restored.KnowledgeStore().Len() == 0 {
		t.Error("knowledge store lost in roundtrip")
	}
	// The restored learner keeps learning: back at the home regime its
	// restored weights (trained there for 30 batches pre-checkpoint) must
	// perform immediately and keep improving.
	var last Result
	for s := 0; s < 15; s++ {
		res, err := restored.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone))
		if err != nil {
			t.Fatal(err)
		}
		seq++
		last = res
	}
	if last.Accuracy < 0.85 {
		t.Errorf("post-restore accuracy = %v", last.Accuracy)
	}
}

func TestLoadCheckpointRejectsMismatches(t *testing.T) {
	cfg := testConfig()
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var buf bytes.Buffer
	if err := l.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Wrong shape.
	wrongShape, err := NewLearner(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wrongShape.Close()
	if err := wrongShape.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("wrong shape should be rejected")
	}

	// Wrong family.
	lrCfg := cfg
	lrCfg.ModelFamily = "lr"
	wrongFamily, err := NewLearner(lrCfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wrongFamily.Close()
	if err := wrongFamily.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("wrong family should be rejected")
	}

	// Wrong ModelNum.
	threeCfg := cfg
	threeCfg.ModelNum = 3
	wrongNum, err := NewLearner(threeCfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer wrongNum.Close()
	if err := wrongNum.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("wrong ModelNum should be rejected")
	}

	// Garbage bytes.
	if err := l.LoadCheckpoint(strings.NewReader("not a checkpoint")); err == nil {
		t.Error("garbage should be rejected")
	}

	// A version 1 checkpoint (its models were gob) under a valid envelope.
	v1 := reframe(t, buf.Bytes(), func(cp *checkpoint) { cp.Version = 1 })
	if err := l.LoadCheckpoint(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version 1 checkpoint: err = %v, want the version error", err)
	}

	// A version 2 checkpoint, whose metrics were every batch's accuracy, is
	// refused, not converted.
	v2 := reframeV2(t, buf.Bytes(), []float64{0.5, 0.75})
	if err := l.LoadCheckpoint(bytes.NewReader(v2)); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("version 2 checkpoint: err = %v, want the version error", err)
	}
}

// reframeV2 rewrites a checkpoint in the version 2 layout: the same sections,
// with the metrics as Prequential's per-batch record of the accuracies accs.
func reframeV2(t *testing.T, data []byte, accs []float64) []byte {
	t.Helper()
	payload, err := readEnvelope(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	type prequentialState struct {
		Accs    []float64
		ByKind  map[stream.DriftKind][]float64
		Samples int
	}
	v2 := struct {
		Version      int
		ModelFamily  string
		Dim, Classes int
		Batch        int
		Models       strategy.EnsembleState
		Detector     shift.State
		Knowledge    []knowledge.EntrySnapshot
		Experience   cluster.ExpBufferState
		Metrics      prequentialState
	}{2, cp.ModelFamily, cp.Dim, cp.Classes, cp.Batch, cp.Models, cp.Detector, cp.Knowledge, cp.Experience,
		prequentialState{Accs: accs, ByKind: map[stream.DriftKind][]float64{stream.KindNone: accs}, Samples: len(accs)}}
	var reenc, framed bytes.Buffer
	if err := gob.NewEncoder(&reenc).Encode(v2); err != nil {
		t.Fatal(err)
	}
	if err := writeEnvelope(&framed, reenc.Bytes()); err != nil {
		t.Fatal(err)
	}
	return framed.Bytes()
}

// TestCheckpointSizeIndependentOfAge: a learner's checkpoint does not grow
// with the number of batches it has seen, because its metrics are the
// fixed-size summary behind Eq. 15 and 16, not every batch's accuracy. Two
// checkpoints, after 1,000 and after 5,000 labelled batches, are compared at
// the same knowledge-store length: without a spill directory the store drops
// half its entries whenever it fills, so its length cycles, and each entry is
// a whole model image.
func TestCheckpointSizeIndependentOfAge(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Four regimes of 40 batches each, pre-drawn and replayed in turn.
	rng := rand.New(rand.NewSource(71))
	var batches []stream.Batch
	for r := 0; r < 4; r++ {
		for i := 0; i < 40; i++ {
			batches = append(batches, driftBatch(rng, 0, 16, float64(4*(r%2)), float64(4*(r/2)), stream.KindNone))
		}
	}
	n := 0
	process := func() {
		if _, err := l.Process(context.Background(), batches[n%len(batches)]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	save := func() int {
		var buf bytes.Buffer
		if err := l.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	for n < 1000 {
		process()
	}
	young, entries := save(), l.KnowledgeStore().Len()
	for n < 5000 || l.KnowledgeStore().Len() != entries {
		if n > 7000 {
			t.Fatalf("the knowledge store never came back to %d entries after batch 5,000", entries)
		}
		process()
	}
	old := save()
	if got := l.Metrics().Batches(); got != n {
		t.Fatalf("%d labelled batches recorded, want %d", got, n)
	}
	t.Logf("checkpoint after 1,000 batches: %d bytes; after %d: %d bytes (%d knowledge entries)", young, n, old, entries)
	if diff := math.Abs(float64(old-young)) / float64(young); diff >= 0.01 {
		t.Errorf("checkpoint grew from %d bytes at 1,000 batches to %d at %d (%.1f %%), want under 1 %%", young, old, n, 100*diff)
	}
}

// TestRefusedCheckpointAppliesNothing: a CRC-valid checkpoint whose model
// images fit but whose detector state does not — a distance history longer
// than the learner's HistoryK — is refused before any section is applied.
// The learner then answers and trains as an untouched twin does.
func TestRefusedCheckpointAppliesNothing(t *testing.T) {
	longCfg := testConfig()
	longCfg.Shift.HistoryK = 30
	src, _, _ := warmLearner(t, longCfg, 40, 61) // 38 batches past warm-up
	defer src.Close()
	var buf bytes.Buffer
	if err := src.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.Shift.HistoryK = 20
	l, rng, seq := warmLearner(t, cfg, 25, 62)
	defer l.Close()
	twin, _, _ := warmLearner(t, cfg, 25, 62)
	defer twin.Close()

	if err := l.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "HistoryK") {
		t.Fatalf("a checkpoint with a longer distance history than HistoryK: err = %v, want the HistoryK error", err)
	}
	probe := driftBatch(rng, seq, 32, 0, 0, stream.KindNone)
	ls, ll := l.DebugModels()
	ts, tl := twin.DebugModels()
	for name, pair := range map[string][2][]int{
		"short": {ls.Predict(probe.X), ts.Predict(probe.X)},
		"long":  {ll.Predict(probe.X), tl.Predict(probe.X)},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s model: row %d predicted %d, the twin %d", name, i, pair[0][i], pair[1][i])
			}
		}
	}
	if l.batch != twin.batch || l.det.State().Batch != twin.det.State().Batch {
		t.Fatalf("batch counts %d (detector %d), the twin's %d (%d)",
			l.batch, l.det.State().Batch, twin.batch, twin.det.State().Batch)
	}
	next := driftBatch(rng, seq+1, 64, 0, 0, stream.KindNone)
	ra, rb := process(t, l, next), process(t, twin, next)
	sameObservations(t, seq+1, ra, rb)
	sameLearners(t, seq+1, l, twin, ra, rb)
}

func TestCheckpointDuringWarmupRoundtrips(t *testing.T) {
	cfg := testConfig()
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(62))
	// One batch: detector still warming up (WarmupPoints=128, batch=64).
	if _, err := l.Process(context.Background(), driftBatch(rng, 0, 64, 0, 0, stream.KindNone)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The restored learner re-warms and continues.
	for s := 1; s < 10; s++ {
		if _, err := restored.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointMidCloseIsARead: a window close spans two Process calls, and a
// checkpoint taken between them neither advances nor drops it. The checkpointed
// learner and an un-checkpointed twin answer every later batch identically and
// end with the same weights; the checkpoint holds the long model as it stood,
// half-trained; and a learner restored from it mid-close of its own has no
// close in flight: its next Process leaves the restored long model untouched.
func TestCheckpointMidCloseIsARead(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(71))
	var batches []stream.Batch
	for s := 0; s < 40; s++ {
		batches = append(batches, driftBatch(rng, s, 64, float64(s)*0.05, 0, stream.KindNone))
	}
	build := func() *Learner {
		l, err := NewLearner(cfg, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	process := func(l *Learner, b stream.Batch) Result {
		t.Helper()
		res, err := l.Process(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Drive three twins to the second window close; stop right after the call
	// that closed it.
	checkpointed, twin, restored := build(), build(), build()
	k, closes := 0, 0
	for ; closes < 2; k++ {
		open := checkpointed.ens.WindowLen()
		for _, l := range []*Learner{checkpointed, twin, restored} {
			process(l, batches[k])
		}
		if open > 0 && checkpointed.ens.WindowLen() == 0 {
			closes++
		}
	}
	_, long := checkpointed.DebugModels()
	halfTrained := long.Net().AppendFlatParams(nil)
	var buf bytes.Buffer
	if err := checkpointed.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	_, long = restored.DebugModels()
	sameParams(t, "the checkpoint's long model", long.Net().AppendFlatParams(nil), halfTrained)
	process(restored, batches[k])
	sameParams(t, "the restored long model after one Process", long.Net().AppendFlatParams(nil), halfTrained)

	for ; k < len(batches); k++ {
		r1, r2 := process(checkpointed, batches[k]), process(twin, batches[k])
		if r1.Pattern != r2.Pattern || r1.Strategy != r2.Strategy || r1.Accuracy != r2.Accuracy {
			t.Fatalf("batch %d: checkpointed %v/%v/%v, twin %v/%v/%v", k, r1.Pattern, r1.Strategy, r1.Accuracy, r2.Pattern, r2.Strategy, r2.Accuracy)
		}
		for i := range r1.Pred {
			if r1.Pred[i] != r2.Pred[i] {
				t.Fatalf("batch %d: pred[%d] = %d checkpointed, %d twin", k, i, r1.Pred[i], r2.Pred[i])
			}
		}
	}
	s1, l1 := checkpointed.DebugModels()
	s2, l2 := twin.DebugModels()
	sameParams(t, "short model", s1.Net().AppendFlatParams(nil), s2.Net().AppendFlatParams(nil))
	sameParams(t, "long model", l1.Net().AppendFlatParams(nil), l2.Net().AppendFlatParams(nil))
}

// sameParams fails unless got and want hold the same bits.
func sameParams(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d parameters, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: parameter %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}
