package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"freewayml/internal/guard"
	"freewayml/internal/nn"
	"freewayml/internal/pca"
	"freewayml/internal/strategy"
)

// InferResult is one batch's inference-plane answer: predictions plus the
// provenance of the snapshot that served them.
type InferResult struct {
	Pred []int
	// Strategy is StrategyWarmup while the snapshot predates the detector's
	// PCA fit, StrategyEnsemble afterwards (the read path never runs the
	// reactive B/C mechanisms — they mutate detector and cluster state and
	// belong to the training plane).
	Strategy Strategy
	// SnapshotBatch/SnapshotSeq/SnapshotAge identify the published snapshot
	// that answered, and how stale it was at read time.
	SnapshotBatch int
	SnapshotSeq   uint64
	SnapshotAge   time.Duration
	// KnowledgeDist is the distance to the nearest stored concept centroid
	// (-1 when no index or during warm-up). Observability only.
	KnowledgeDist float64
}

// ModelSnapshot returns the currently published inference snapshot, pinned:
// the caller may read it for as long as it likes, and its members' parameter
// copies are never recycled. Safe from any goroutine, lock-free, never nil
// after NewLearner.
func (l *Learner) ModelSnapshot() *strategy.Snapshot {
	s := l.readSnapshot()
	s.Pin()
	return s
}

// readSnapshot loads the published snapshot and counts a read of it (see
// strategy.Snapshot.AddReader): its members' parameter copies stay as they
// are until the matching DoneReading.
func (l *Learner) readSnapshot() *strategy.Snapshot {
	for {
		s := l.snap.Load()
		s.AddReader()
		if l.snap.Load() == s {
			return s
		}
		s.DoneReading()
	}
}

// publishSnapshot rebuilds and atomically publishes the inference view.
// Called on the training goroutine: at construction, after every
// successful Process, and after a checkpoint restore. Every model update of
// a batch, each half of a window close included, finishes before its publish,
// so the inference plane is at most one training batch behind: the batch in
// flight. The snapshot it replaces is retired (strategy.Ensemble.Retire):
// once no read holds it, its members' parameter copies that nothing else
// holds are recycled (DESIGN.md, "Who holds a parameter copy").
func (l *Learner) publishSnapshot() {
	var proj *pca.Model
	if l.det.Ready() {
		proj = l.det.PCA()
	}
	l.snapSeq++
	old := l.snap.Swap(&strategy.Snapshot{
		Members:     l.ens.PublishSnapshot(),
		Sigma:       l.cfg.Sigma,
		Proj:        proj,
		Knowledge:   l.kdg,
		Batch:       l.batch,
		Seq:         l.snapSeq,
		PublishedAt: time.Now(),
		Dim:         l.dim,
		Classes:     l.classes,
	})
	if old != nil {
		l.ens.Retire(old)
	}
}

// Infer predicts one batch of label-less rows from the published snapshot.
// It is the lock-free read path: it loads the snapshot pointer atomically
// and touches no mutable learner state — no detector, no window, no
// prequential bookkeeping — so it runs concurrently with Process,
// checkpointing, and Close, and with any number of other Infer calls: the
// snapshot's members are frozen parameter copies and every forward pass
// writes only a workspace the call takes from the process-wide pool. The call
// then parks that workspace in the learner's hand-off slot (handoff.go),
// displacing the one parked before. A closed learner still answers from its
// last snapshot.
func (l *Learner) Infer(ctx context.Context, x [][]float64) (InferResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return InferResult{}, err
	}
	if len(x) == 0 {
		return InferResult{}, errors.New("core: infer: empty batch")
	}
	start := time.Now()
	ws := nn.GetWorkspace()
	// The staging checks each row's width as it copies it.
	if err := ws.Stage(x, l.dim); err != nil {
		ws.Release()
		return InferResult{}, fmt.Errorf("core: infer: %w", err)
	}
	// The training plane's guard repairs or rejects non-finite features
	// statefully (running feature means, health counters); the read path must
	// stay pure, so it only rejects — on what the staging found as it copied
	// the rows, which a Process of the same rows then takes as checked.
	if !ws.Finite() {
		ws.Release()
		return InferResult{}, fmt.Errorf("core: infer: non-finite feature: %w", guard.ErrRejected)
	}
	// The read holds the snapshot's parameter copies while the forwards run;
	// what it parks afterwards are activations, in the workspace.
	snap := l.readSnapshot()
	out, err := snap.InferInto(ws)
	snap.DoneReading()
	if err != nil {
		ws.Release()
		return InferResult{}, fmt.Errorf("core: %w", err)
	}
	// The forwards just run are the ones a Process of these rows on this
	// snapshot would run: leave them for it.
	l.park(ws, snap.Seq)
	elapsed := time.Since(start)
	age := snap.Age()
	st := StrategyEnsemble
	if out.Warmup {
		st = StrategyWarmup
	}
	l.obs.InferObserved(len(out.Pred), elapsed, age, snap.Batch, out.Warmup)
	return InferResult{
		Pred:          out.Pred,
		Strategy:      st,
		SnapshotBatch: snap.Batch,
		SnapshotSeq:   snap.Seq,
		SnapshotAge:   age,
		KnowledgeDist: out.KnowledgeDist,
	}, nil
}
