package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/faults"
	"freewayml/internal/guard"
	"freewayml/internal/stream"
)

// warmLearner builds a learner and feeds it enough clean batches to leave
// warmup and reach solid accuracy.
func warmLearner(t *testing.T, cfg Config, batches int, seed int64) (*Learner, *rand.Rand, int) {
	t.Helper()
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	seq := 0
	for ; seq < batches; seq++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
	}
	return l, rng, seq
}

func TestRejectPolicyRefusesDirtyBatchAndKeepsState(t *testing.T) {
	cfg := testConfig()
	cfg.Guard = guard.Reject
	l, rng, seq := warmLearner(t, cfg, 20, 11)
	defer l.Close()

	short, _ := l.DebugModels()
	probe := driftBatch(rng, seq, 32, 0, 0, stream.KindNone)
	before := short.Predict(probe.X)

	dirty := driftBatch(rng, seq, 64, 0, 0, stream.KindNone)
	faults.InjectNaN(dirty.X, 7)
	faults.InjectInf(dirty.X, 11, 1)
	if _, err := l.Process(context.Background(), dirty); !errors.Is(err, guard.ErrRejected) {
		t.Fatalf("dirty batch err = %v, want ErrRejected", err)
	}
	st := l.Stats()
	if st.RejectedBatches != 1 {
		t.Errorf("RejectedBatches = %d, want 1", st.RejectedBatches)
	}
	// The refused batch must not have touched the models.
	after := short.Predict(probe.X)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("rejected batch changed model state")
		}
	}
	// The stream continues normally afterwards.
	res, err := l.Process(context.Background(), driftBatch(rng, seq+1, 64, 0, 0, stream.KindNone))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.85 {
		t.Errorf("post-reject accuracy = %v", res.Accuracy)
	}
}

func TestRepairPoliciesSurviveDirtyBatches(t *testing.T) {
	for _, policy := range []guard.Policy{guard.Clamp, guard.Impute} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Guard = policy
			l, rng, seq := warmLearner(t, cfg, 20, 13)
			defer l.Close()

			// A burst of dirty batches: every 5th value NaN, every 9th Inf.
			for i := 0; i < 4; i++ {
				dirty := driftBatch(rng, seq, 64, 0, 0, stream.KindNone)
				faults.InjectNaN(dirty.X, 5)
				faults.InjectInf(dirty.X, 9, -1)
				if _, err := l.Process(context.Background(), dirty); err != nil {
					t.Fatalf("dirty batch %d: %v", i, err)
				}
				seq++
			}
			st := l.Stats()
			if st.SanitizedBatches != 4 || st.SanitizedValues == 0 {
				t.Errorf("sanitize counters = %+v", st)
			}
			// Clean traffic recovers full accuracy (the watchdog rolls back
			// any update the repaired-but-extreme values still destabilized).
			var last Result
			for i := 0; i < 10; i++ {
				res, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone))
				if err != nil {
					t.Fatal(err)
				}
				seq++
				last = res
			}
			if last.Accuracy < 0.85 {
				t.Errorf("post-fault accuracy = %v (stats %+v)", last.Accuracy, l.Stats())
			}
		})
	}
}

func TestWatchdogRollsBackCorruptShortModel(t *testing.T) {
	cfg := testConfig()
	l, rng, seq := warmLearner(t, cfg, 20, 17)
	defer l.Close()

	// Corrupt every short-model weight — the canonical post-divergence
	// state a NaN that slipped through would leave behind.
	short, _ := l.DebugModels()
	for _, p := range short.Net().Params() {
		for j := range p.W {
			p.W[j] = math.NaN()
		}
	}
	if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone)); err != nil {
		t.Fatalf("batch on corrupt model: %v", err)
	}
	seq++

	st := l.Stats()
	if st.Divergences < 1 || st.Recoveries < 1 {
		t.Fatalf("watchdog missed the divergence: %+v", st)
	}
	events := l.RecoveryEvents()
	if len(events) == 0 || events[0].Model != "gran0" || !events[0].RolledBack {
		t.Errorf("events = %+v", events)
	}
	if !short.Net().ParamsFinite() {
		t.Fatal("weights still non-finite after rollback")
	}
	// Accuracy recovers immediately: the restored snapshot was trained on
	// this very regime.
	res, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.85 {
		t.Errorf("post-rollback accuracy = %v", res.Accuracy)
	}
}

// TestWatchdogRollsBackToRestoredWeights: a checkpoint restore replaces the
// models' parameters, so it must also become the watchdog's rollback target.
// On a fresh process nothing else has been retained yet: without the
// re-seed the first divergent update finds nothing to return to, the weights
// stay NaN, and every later update is "non-finite weights" — the stream
// never heals.
func TestWatchdogRollsBackToRestoredWeights(t *testing.T) {
	cfg := testConfig()
	src, rng, seq := warmLearner(t, cfg, 20, 31)
	defer src.Close()
	var ckpt bytes.Buffer
	if err := src.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	srcShort, _ := src.DebugModels()
	restored := srcShort.Net().AppendFlatParams(nil)

	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.LoadCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	// Poison the first update after the restore.
	short, _ := l.DebugModels()
	for _, p := range short.Net().Params() {
		p.W[0] = math.NaN()
	}
	if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone)); err != nil {
		t.Fatal(err)
	}
	seq++
	events := l.RecoveryEvents()
	if len(events) != 1 || events[0].Model != "gran0" || !events[0].RolledBack {
		t.Fatalf("events = %+v, want one rolled-back gran0 divergence", events)
	}
	got := short.Net().AppendFlatParams(nil)
	for i := range restored {
		if math.Float64bits(got[i]) != math.Float64bits(restored[i]) {
			t.Fatalf("weight %d after rollback = %v, restored checkpoint had %v", i, got[i], restored[i])
		}
	}
	// The stream keeps learning: no further divergence, accuracy intact.
	for i := 0; i < 3; i++ {
		res, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone))
		if err != nil {
			t.Fatal(err)
		}
		seq++
		if res.Accuracy < 0.85 {
			t.Errorf("batch %d after rollback: accuracy %v", i, res.Accuracy)
		}
	}
	if st := l.Stats(); st.Divergences != 1 || st.Recoveries != 1 {
		t.Errorf("stats after healing = %+v, want exactly one divergence, recovered", st)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Watchdog.Disabled = true
	l, rng, seq := warmLearner(t, cfg, 10, 19)
	defer l.Close()
	short, _ := l.DebugModels()
	for _, p := range short.Net().Params() {
		for j := range p.W {
			p.W[j] = math.NaN()
		}
	}
	if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 0, 0, stream.KindNone)); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Divergences != 0 {
		t.Errorf("disabled watchdog recorded %+v", st)
	}
}

func TestRaggedBatchRejectedCleanly(t *testing.T) {
	cfg := testConfig()
	l, rng, seq := warmLearner(t, cfg, 5, 23)
	defer l.Close()
	b := driftBatch(rng, seq, 16, 0, 0, stream.KindNone)
	b.X = faults.Ragged(b.X)
	if _, err := l.Process(context.Background(), b); err == nil {
		t.Fatal("ragged batch accepted")
	}
	// Learner still serves.
	if _, err := l.Process(context.Background(), driftBatch(rng, seq+1, 16, 0, 0, stream.KindNone)); err != nil {
		t.Fatal(err)
	}
}

// corruptions builds the checkpoint-corruption cases of the fault model:
// a crash mid-write (truncation), bit rot (one flipped payload bit), and a
// foreign/old format (wrong envelope version).
func corruptions(data []byte) map[string][]byte {
	wrongVersion := append([]byte(nil), data...)
	wrongVersion[4] ^= 0xFF // envelope version field
	return map[string][]byte{
		"truncated":     faults.Truncated(data, 0.6),
		"bit-flipped":   faults.FlipBit(data, len(data)*4), // mid-payload bit
		"wrong-version": wrongVersion,
		"empty":         {},
		"not-a-ckpt":    []byte("definitely not a checkpoint file"),
	}
}

func TestCorruptCheckpointLeavesLearnerUntouched(t *testing.T) {
	cfg := testConfig()
	l, rng, seq := warmLearner(t, cfg, 20, 31)
	defer l.Close()
	var buf bytes.Buffer
	if err := l.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	short, long := l.DebugModels()
	probe := driftBatch(rng, seq, 32, 0, 0, stream.KindNone)
	beforeShort := short.Predict(probe.X)
	beforeLong := long.Predict(probe.X)

	for name, data := range corruptions(buf.Bytes()) {
		t.Run(name, func(t *testing.T) {
			err := l.LoadCheckpoint(bytes.NewReader(data))
			if err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
			if name != "wrong-version" && !errors.Is(err, ErrCheckpointCorrupt) {
				t.Errorf("err = %v, want ErrCheckpointCorrupt", err)
			}
			afterShort := short.Predict(probe.X)
			afterLong := long.Predict(probe.X)
			for i := range beforeShort {
				if beforeShort[i] != afterShort[i] || beforeLong[i] != afterLong[i] {
					t.Fatal("failed load changed in-memory model state")
				}
			}
		})
	}

	// The intact checkpoint still loads after all that.
	if err := l.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCheckpointSkipsCorruptKnowledgeEntries(t *testing.T) {
	cfg := testConfig()
	cfg.Window.MaxBatches = 3
	l, rng, seq := warmLearner(t, cfg, 30, 37)
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, seq, 64, 8, 8, stream.KindSudden)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	if l.KnowledgeStore().Len() < 2 {
		t.Skip("not enough knowledge entries to corrupt")
	}
	var buf bytes.Buffer
	if err := l.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Blank one knowledge image (the degraded shape an older or
	// partially-recovered writer could produce) and cut another short (an
	// image that does not fit the model: matched later, it could not be
	// restored).
	total := 0
	framed := reframe(t, buf.Bytes(), func(cp *checkpoint) {
		total = len(cp.Knowledge)
		cp.Knowledge[0].Snapshot = nil
		cp.Knowledge[1].Snapshot = cp.Knowledge[1].Snapshot[:len(cp.Knowledge[1].Snapshot)-8]
	})

	restored, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.LoadCheckpoint(bytes.NewReader(framed)); err != nil {
		t.Fatalf("degraded restore failed outright: %v", err)
	}
	if got := restored.KnowledgeStore().Len(); got != total-2 {
		t.Errorf("restored %d entries, want %d", got, total-2)
	}
	if st := restored.Stats(); st.KnowledgeSkipped != 2 {
		t.Errorf("KnowledgeSkipped = %d, want 2", st.KnowledgeSkipped)
	}
}

// reframe decodes a checkpoint's payload, lets edit change it, and frames it
// again with a valid envelope.
func reframe(t *testing.T, data []byte, edit func(*checkpoint)) []byte {
	t.Helper()
	payload, err := readEnvelope(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	edit(&cp)
	var reenc, framed bytes.Buffer
	if err := gob.NewEncoder(&reenc).Encode(cp); err != nil {
		t.Fatal(err)
	}
	if err := writeEnvelope(&framed, reenc.Bytes()); err != nil {
		t.Fatal(err)
	}
	return framed.Bytes()
}

func TestSaveCheckpointFileIsAtomicAndLoadable(t *testing.T) {
	cfg := testConfig()
	l, _, _ := warmLearner(t, cfg, 15, 41)
	defer l.Close()

	path := t.TempDir() + "/ckpt.bin"
	if err := l.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second save: rename must replace, not append.
	if err := l.SaveCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.LoadCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCheckpointFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}
