package strategy

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"freewayml/internal/ensemble"
	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/pca"
	"freewayml/internal/shift"
)

// SnapshotMember is one ensemble member frozen at publication time: a deep
// model clone plus the centroid of its training distribution in shift space.
// Neither is mutated after the snapshot is built — the training plane clones
// before publishing, so readers share the structs freely.
type SnapshotMember struct {
	Model    model.Model
	Centroid linalg.Vector
}

// Snapshot is the immutable inference view the training plane publishes
// after every batch. It carries everything the paper's Eq. 12-14 fusion
// needs — the granularity models with their centroids (short first, long
// last), the kernel bandwidth, and the PCA projection that maps a batch mean
// into shift space — plus read-only observability context: the lock-free
// knowledge-match index, the CEC experience size, and the pattern of the
// batch that produced the snapshot.
//
// A Snapshot must never be mutated after publication. The infer plane loads
// the current pointer atomically and may keep using a superseded snapshot
// for the duration of one request; the staleness bound is one training
// batch (plus one asynchronous long-model update, see DESIGN.md).
type Snapshot struct {
	Members []SnapshotMember // granularities in order, long-term model last
	Sigma   float64
	Proj    *pca.Model // nil until the detector finishes warm-up

	// Knowledge is the shared match index; Match/NearestDistance are
	// lock-free reads. Nil when the learner has no store.
	Knowledge *knowledge.Store
	// Experience is the CEC experience-buffer size at publication.
	Experience int
	// Pattern is the shift pattern of the batch that produced this
	// snapshot (PatternWarmup before the detector is ready).
	Pattern shift.Pattern

	// Batch is the training batch counter at publication; Seq increments
	// once per publication (checkpoint restores also publish).
	Batch       int
	Seq         uint64
	PublishedAt time.Time
	Dim         int
	Classes     int

	// ComputeMu serializes forward passes across every snapshot of one
	// learner. The member *parameters* are immutable, but a model's forward
	// pass stages rows into model-owned scratch, and publication reuses an
	// unchanged member's clone across consecutive snapshots — so two
	// concurrent readers (even of different snapshot generations) would race
	// on that scratch without it. The mutex belongs to the read plane alone:
	// the training path never takes it, so a reader waits only behind other
	// readers, never behind training, checkpointing, or eviction.
	ComputeMu *sync.Mutex
}

// InferOutput is the pure inference result for one batch of rows.
type InferOutput struct {
	Pred  []int
	Proba [][]float64
	// Warmup reports that only the short model answered (no projection yet).
	Warmup bool
	// Weights are the normalized fusion weights the members received
	// (nil during warm-up).
	Weights []float64
	// KnowledgeDist is the distance to the nearest stored concept centroid
	// (observability only; -1 when no index or no projection).
	KnowledgeDist float64
}

// Age returns how long ago the snapshot was published.
func (s *Snapshot) Age() time.Duration { return time.Since(s.PublishedAt) }

// InferBatch runs pure inference over one batch of rows: one forward pass
// per member, then the Gaussian-kernel fusion of Eq. 12-14 — each member
// weighted by K(Dᵢ,σ)/ΣK, Dᵢ the distance from the batch's projected mean to
// the member's training centroid. Until the projection exists the paper
// trains and serves the short model alone.
func (s *Snapshot) InferBatch(x [][]float64) (InferOutput, error) {
	if s == nil {
		return InferOutput{}, errors.New("strategy: nil snapshot")
	}
	if len(s.Members) == 0 {
		return InferOutput{}, errors.New("strategy: snapshot has no members")
	}
	for _, row := range x {
		if len(row) != s.Dim {
			return InferOutput{}, fmt.Errorf("strategy: row has %d features, want %d", len(row), s.Dim)
		}
	}

	if s.Proj == nil {
		proba := s.forward(s.Members[:1], x)[0].Proba
		return InferOutput{Pred: argmaxRows(proba), Proba: proba, Warmup: true, KnowledgeDist: -1}, nil
	}

	mean, err := meanOfRows(x)
	if err != nil {
		return InferOutput{}, err
	}
	var ybar linalg.Vector // nil for an empty batch
	if mean != nil {
		ybar, err = s.Proj.ProjectMean(mean)
		if err != nil {
			return InferOutput{}, fmt.Errorf("strategy: infer projection: %w", err)
		}
	}
	members := s.forward(s.Members, x)
	for i, m := range s.Members {
		members[i].Distance = centroidDistance(ybar, m.Centroid)
	}
	normalizeDistances(members)
	fused, weights, err := ensemble.Fuse(members, s.Sigma)
	if err != nil {
		return InferOutput{}, fmt.Errorf("strategy: infer fusion: %w", err)
	}
	kdist := -1.0
	if s.Knowledge != nil && ybar != nil {
		if d := s.Knowledge.NearestDistance(ybar); !math.IsInf(d, 0) && !math.IsNaN(d) {
			kdist = d
		}
	}
	return InferOutput{
		Pred:          argmaxRows(fused),
		Proba:         fused,
		Weights:       weights,
		KnowledgeDist: kdist,
	}, nil
}

// forward runs x through the given members under ComputeMu. Only these
// forward passes touch model-owned scratch, so the lock covers nothing else:
// the batch mean, its projection, the fusion and the knowledge distance run
// outside it.
func (s *Snapshot) forward(ms []SnapshotMember, x [][]float64) []ensemble.Member {
	if s.ComputeMu != nil {
		s.ComputeMu.Lock()
		defer s.ComputeMu.Unlock()
	}
	out := make([]ensemble.Member, len(ms))
	for i, m := range ms {
		out[i].Proba = m.Model.PredictProba(x)
	}
	return out
}

// meanOfRows returns the column mean of the batch (nil for an empty batch).
func meanOfRows(rows [][]float64) (linalg.Vector, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	points := make([]linalg.Vector, len(rows))
	for i, r := range rows {
		points[i] = r
	}
	mean, err := linalg.Mean(points)
	if err != nil {
		return nil, fmt.Errorf("strategy: infer mean: %w", err)
	}
	return mean, nil
}
