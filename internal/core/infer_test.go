package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"freewayml/internal/guard"
	"freewayml/internal/linalg"
	"freewayml/internal/nn"
	"freewayml/internal/strategy"
	"freewayml/internal/stream"
)

// inferRows draws n label-less rows.
func inferRows(rng *rand.Rand, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		c := rng.Intn(2)
		rows[i] = []float64{float64(c)*2 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3, 0}
	}
	return rows
}

// TestInferRejectsBadInput: the pure read path refuses what it cannot
// repair — non-finite features (guard-rejected), ragged rows, empty input.
func TestInferRejectsBadInput(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if _, err := l.Infer(context.Background(), [][]float64{{1, math.NaN(), 0}}); !errors.Is(err, guard.ErrRejected) {
		t.Errorf("NaN feature: err = %v, want guard.ErrRejected", err)
	}
	if _, err := l.Infer(context.Background(), [][]float64{{1, math.Inf(1), 0}}); !errors.Is(err, guard.ErrRejected) {
		t.Errorf("Inf feature: err = %v, want guard.ErrRejected", err)
	}
	if _, err := l.Infer(context.Background(), [][]float64{{1, 2}}); err == nil {
		t.Error("ragged row accepted")
	}
	// The staging names the first row of another width, before any value.
	const want = "core: infer: row has 2 features, want 3"
	if _, err := l.Infer(context.Background(), [][]float64{{1, math.NaN(), 0}, {1, 2}, {1}}); err == nil || err.Error() != want {
		t.Errorf("ragged second row: err = %v, want %q", err, want)
	}
	if _, err := l.Infer(context.Background(), nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestInferDoesNotAdvanceTraining: inference is a pure read — no batch
// counter movement, no new snapshot publication, no metric samples on the
// training side.
func TestInferDoesNotAdvanceTraining(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(8))
	for s := 0; s < 5; s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.ModelSnapshot()
	batches := l.Metrics().Batches()
	for i := 0; i < 10; i++ {
		if _, err := l.Infer(context.Background(), inferRows(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Metrics().Batches() != batches {
		t.Errorf("Infer advanced the batch counter: %d -> %d", batches, l.Metrics().Batches())
	}
	after := l.ModelSnapshot()
	if after != before {
		t.Error("Infer republished the snapshot")
	}
}

// TestSnapshotAdvancesWithTraining: every Process publishes a fresh
// snapshot whose sequence and batch counters move forward, and a fresh
// learner already has a (warmup) snapshot so inference never waits for the
// first training batch.
func TestSnapshotAdvancesWithTraining(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	snap := l.ModelSnapshot()
	if snap == nil {
		t.Fatal("fresh learner has no snapshot")
	}
	if snap.Batch != 0 {
		t.Errorf("fresh snapshot batch = %d", snap.Batch)
	}
	res, err := l.Infer(context.Background(), [][]float64{{0.5, 0, 0}})
	if err != nil {
		t.Fatalf("infer before first batch: %v", err)
	}
	if res.Strategy != StrategyWarmup {
		t.Errorf("pre-training strategy = %v, want warmup", res.Strategy)
	}

	rng := rand.New(rand.NewSource(9))
	lastSeq := snap.Seq
	for s := 0; s < 6; s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, s, 64, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
		snap = l.ModelSnapshot()
		if snap.Seq <= lastSeq {
			t.Fatalf("batch %d: snapshot seq did not advance (%d -> %d)", s, lastSeq, snap.Seq)
		}
		lastSeq = snap.Seq
		if snap.Batch != s+1 {
			t.Errorf("batch %d: snapshot batch = %d", s, snap.Batch)
		}
	}
}

// TestInferDuringCloseAndShutdown: Process runs on the caller's goroutine,
// closing the window inline every few batches, while any number of readers
// Infer and Close joins in at the end. Readers take no lock and share no
// scratch, so under -race this must be silent. Every answer whose snapshot can
// be pinned (the same one published before and after the call) is fused again
// on that snapshot by the reader, into a pooled workspace, while training
// goes on; once everything has stopped, its labels and those fused
// distributions must equal, bit for bit, a serial InferInto. Because the close
// finishes inside Process, the snapshot published after every Process already
// holds the long model that close produced: its last member answers a probe
// batch bit for bit like the live long model.
func TestInferDuringCloseAndShutdown(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		snap  *strategy.Snapshot
		x     [][]float64
		res   InferResult
		proba []float64 // the reader's InferInto on snap, class-major
	}
	const readers = 4
	answers := make([][]answer, readers)
	var pinned atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(90 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				x := inferRows(rng, 1+rng.Intn(48))
				before := l.ModelSnapshot()
				res, err := l.Infer(context.Background(), x)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if before == l.ModelSnapshot() && len(answers[r]) < 64 {
					ws := nn.GetWorkspace()
					ws.Stage(x, before.Dim)
					fused, err := before.InferInto(ws)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					answers[r] = append(answers[r], answer{before, x, res, append([]float64(nil), fused.Proba.Data...)})
					ws.Release()
					pinned.Add(1)
				}
				runtime.Gosched()
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(91))
	probe := inferRows(rand.New(rand.NewSource(92)), 16)
	var probeT, live linalg.Tensor
	probeT.FromRows(probe, 3)
	var ws nn.Workspace
	// Ten window closes at least, and on until the readers have been seen at
	// work.
	for s := 0; s < 40 || (pinned.Load() < 4*readers && s < 4000); s++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, s, 64, float64(s)*0.05, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
		members := l.ModelSnapshot().Members
		_, long := l.DebugModels()
		long.Net().ProbaInto(&live, &probeT)
		ws.Reset()
		published := members[len(members)-1].Model.ProbaInto(&ws, &probeT)
		if published.Rows != live.Rows || published.Cols != live.Cols {
			t.Fatalf("batch %d: published long member answers %dx%d, live %dx%d", s, published.Rows, published.Cols, live.Rows, live.Cols)
		}
		for i, w := range live.Data {
			if math.Float64bits(published.Data[i]) != math.Float64bits(w) {
				t.Fatalf("batch %d: the published long member answers %v at %d, the live long model %v", s, published.Data[i], i, w)
			}
		}
	}
	if err := l.Close(); err != nil { // the readers go on meanwhile
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	for r := range answers {
		for i, a := range answers[r] {
			if a.res.SnapshotSeq != a.snap.Seq {
				t.Fatalf("reader %d, read %d: answered from snapshot %d, pinned %d", r, i, a.res.SnapshotSeq, a.snap.Seq)
			}
			ws.Reset()
			ws.Stage(a.x, a.snap.Dim)
			want, err := a.snap.InferInto(&ws)
			if err != nil {
				t.Fatal(err)
			}
			for s, w := range want.Pred {
				if a.res.Pred[s] != w {
					t.Fatalf("reader %d, read %d (snapshot %d): pred[%d] = %d, serial %d", r, i, a.snap.Seq, s, a.res.Pred[s], w)
				}
			}
			for j, w := range want.Proba.Data {
				if math.Float64bits(a.proba[j]) != math.Float64bits(w) {
					t.Fatalf("reader %d, read %d (snapshot %d): proba[%d][%d] = %v, serial %v", r, i, a.snap.Seq, j%len(a.x), j/len(a.x), a.proba[j], w)
				}
			}
		}
	}
	if pinned.Load() < 4*readers {
		t.Errorf("%d reads could be pinned to their snapshot, want at least %d", pinned.Load(), 4*readers)
	}
}
