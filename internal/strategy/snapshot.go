package strategy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/pca"
)

// SnapshotMember is one ensemble member frozen at publication time: the
// model's read-only view (a copy of its parameter values; no scratch, no
// optimizer) plus the centroid of its training distribution in shift space.
// Neither is written after the snapshot is built, and a forward pass over the
// member writes only the reader's own workspace, so any number of readers of
// any snapshot generations share the structs freely.
type SnapshotMember struct {
	Model    model.Frozen
	Centroid linalg.Vector
}

// Snapshot is the immutable inference view the training plane publishes
// after every batch. It carries everything the paper's Eq. 12-14 fusion
// needs — the granularity models with their centroids (short first, long
// last), the kernel bandwidth, and the PCA projection that maps a batch mean
// into shift space — plus the lock-free knowledge-match index, read for
// observability.
//
// A Snapshot must never be mutated after publication, but for its reader
// count. The infer plane loads the current pointer atomically and may keep
// using a superseded snapshot for the duration of one request; the staleness
// bound is one training batch (see DESIGN.md). Each such read is counted
// (AddReader, DoneReading): the publisher recycles the parameter storage of
// a superseded snapshot's members only once no read is in flight, and never
// the storage of a pinned one (Pin).
type Snapshot struct {
	Members []SnapshotMember // granularities in order, long-term model last
	Sigma   float64
	Proj    *pca.Model // nil until the detector finishes warm-up

	// Knowledge is the learner's own store, shared between its trainer and
	// the snapshot's readers; Match/NearestDistance are lock-free reads.
	// Nil when the learner has no store.
	Knowledge *knowledge.Store

	// Batch is the training batch counter at publication; Seq increments
	// once per publication (checkpoint restores also publish).
	Batch       int
	Seq         uint64
	PublishedAt time.Time
	Dim         int
	Classes     int

	readers atomic.Int64 // reads in flight
	pinned  atomic.Bool  // handed out for keeps
}

// AddReader counts one more read of s in flight. A reader that loaded s from
// the publisher's pointer must load that pointer again afterwards and read s
// only if s is still the one published; otherwise it calls DoneReading and
// starts over. Go's atomics are sequentially consistent, so either the
// publisher, which checks a snapshot's count only after it has published
// the next one, sees this read, or the reader sees the next snapshot.
func (s *Snapshot) AddReader() { s.readers.Add(1) }

// DoneReading ends a read AddReader counted: s's members are not read again
// by it.
func (s *Snapshot) DoneReading() { s.readers.Add(-1) }

// Pin marks s as handed out for keeps, after an AddReader that is never
// ended: its members' storage is never recycled.
func (s *Snapshot) Pin() { s.pinned.Store(true) }

// InUse reports whether a read of s is in flight, or s is pinned.
func (s *Snapshot) InUse() bool { return s.readers.Load() != 0 }

// Pinned reports whether s was handed out for keeps.
func (s *Snapshot) Pinned() bool { return s.pinned.Load() }

// InferOutput is the pure inference result for one batch of rows.
type InferOutput struct {
	Pred []int
	// Proba holds the fused class distributions, class-major (classes ×
	// rows), in the workspace InferInto was given; InferBatch leaves it nil.
	Proba *linalg.Tensor
	// Warmup reports that only the short model answered (no projection yet).
	Warmup bool
	// Weights are the normalized fusion weights the members received (nil
	// during warm-up), in the workspace like Proba; InferBatch copies them.
	Weights []float64
	// KnowledgeDist is the distance to the nearest stored concept centroid
	// (observability only; -1 when no index or no projection).
	KnowledgeDist float64
}

// Age returns how long ago the snapshot was published.
func (s *Snapshot) Age() time.Duration { return time.Since(s.PublishedAt) }

// InferBatch answers one batch of rows with labels: the rows staged in a
// workspace from the process-wide pool, InferInto over it, and the workspace
// released before it returns.
func (s *Snapshot) InferBatch(x [][]float64) (InferOutput, error) {
	if err := s.usable(); err != nil {
		return InferOutput{}, err
	}
	ws := nn.GetWorkspace()
	defer ws.Release()
	if err := ws.Stage(x, s.Dim); err != nil {
		return InferOutput{}, fmt.Errorf("strategy: %w", err)
	}
	out, err := s.InferInto(ws)
	out.Proba, out.Weights = nil, slices.Clone(out.Weights) // ws's, which the next reader overwrites
	return out, err
}

// usable reports why s cannot answer, if it cannot.
func (s *Snapshot) usable() error {
	if s == nil {
		return errors.New("strategy: nil snapshot")
	}
	if len(s.Members) == 0 {
		return errors.New("strategy: snapshot has no members")
	}
	return nil
}

// InferInto runs pure inference over the batch staged in ws
// (nn.Workspace.Stage, Dim wide): one forward pass per member, then the
// Gaussian-kernel fusion of Eq. 12-14 — each member weighted by K(Dᵢ,σ)/ΣK,
// Dᵢ the distance from the batch's projected mean to the member's training
// centroid (fuseAt). Until the projection exists the paper trains and serves
// the short model alone. Every byte of forward scratch, the fused
// distributions and the weights included, is taken from ws, whose only user
// the caller must be: Proba and Weights stay valid until ws is reset or
// released. ws keeps the rows staged, each member's forward over them, which
// the training plane may train from, and the fused answer with the ȳ it was
// weighed at, which it may answer with (see Ensemble.BeginBatch).
func (s *Snapshot) InferInto(ws *nn.Workspace) (InferOutput, error) {
	if err := s.usable(); err != nil {
		return InferOutput{}, err
	}
	xs := ws.Staged()
	if xs == nil {
		return InferOutput{}, errors.New("strategy: no batch staged")
	}
	if xs.Cols != s.Dim {
		return InferOutput{}, fmt.Errorf("strategy: staged rows have %d features, want %d", xs.Cols, s.Dim)
	}

	if s.Proj == nil {
		p := prediction(s.Members[0].Model.ProbaInto(ws, xs))
		return InferOutput{Pred: p.Pred, Proba: p.Proba, Warmup: true, KnowledgeDist: -1}, nil
	}

	// The forwards first: a Process call that takes ws over (Ensemble.BeginBatch)
	// forwards its members in this order, so each pass finds the tensors of
	// its own shapes where it left them.
	var buf [4]member // the usual member count, on the stack
	members := buf[:0]
	for _, m := range s.Members {
		members = append(members, member{proba: m.Model.ProbaInto(ws, xs), centroid: m.Centroid})
	}
	var ybar linalg.Vector // nil for an empty batch
	if xs.Rows > 0 {
		var err error
		ybar, err = s.Proj.ProjectMean(ws.Mean())
		if err != nil {
			return InferOutput{}, fmt.Errorf("strategy: infer projection: %w", err)
		}
	}
	p, weights, err := fuseAt(ws.Tensor(0, 0), ws.Tensor(1, len(members)).Data, members, ybar, s.Sigma)
	if err != nil {
		return InferOutput{}, fmt.Errorf("strategy: infer fusion: %w", err)
	}
	// The answer stays with the batch: a Process of it on this publication
	// answers with it (Ensemble.Infer).
	ws.KeepAnswer(p.Proba, weights, ybar)
	kdist := -1.0
	if s.Knowledge != nil && ybar != nil {
		if d := s.Knowledge.NearestDistance(ybar); !math.IsInf(d, 0) && !math.IsNaN(d) {
			kdist = d
		}
	}
	return InferOutput{
		Pred:          p.Pred,
		Proba:         p.Proba,
		Weights:       weights,
		KnowledgeDist: kdist,
	}, nil
}
