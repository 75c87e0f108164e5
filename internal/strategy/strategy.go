// Package strategy implements the three adaptive mechanisms of FreewayML
// (paper Sec. IV): the multi-time-granularity ensemble for slight shifts
// (Pattern A), coherent experience clustering for sudden shifts (Pattern B),
// and historical knowledge reuse for reoccurring shifts (Pattern C). The core
// learner shrinks to detection → dispatch → bookkeeping; everything
// mechanism-specific — the models, the adaptive window, the experience
// buffer, the store match — lives here. The mechanisms decide nothing about
// who serves a batch: CEC and knowledge reuse return their evidence, and
// core's dispatch table chooses.
package strategy

import (
	"math"
	"time"

	"freewayml/internal/linalg"
)

// Stage names used in the freeway_stage_seconds{stage=...} histograms and
// the per-event stage timings. "predict" wraps the whole strategy dispatch,
// so it contains "cluster" and "knowledge_lookup" when those mechanisms run.
// "long_update" covers the window close, on the batches that begin and land it.
const (
	StageGuard           = "guard"
	StageShiftDetect     = "shift_detect"
	StagePredict         = "predict"
	StageCluster         = "cluster"
	StageKnowledgeLookup = "knowledge_lookup"
	StageShortUpdate     = "short_update"
	StageWindowPush      = "window_push"
	StageLongUpdate      = "long_update"
)

// StageNames lists every stage in pipeline order.
var StageNames = []string{
	StageGuard, StageShiftDetect, StagePredict, StageCluster,
	StageKnowledgeLookup, StageShortUpdate, StageWindowPush, StageLongUpdate,
}

// Prediction is what one strategy produced for a batch: hard labels always,
// and the class distributions behind them when the mechanism yields some (nil
// for CEC, which outputs hard labels). Proba is class-major (classes ×
// samples) and no copy: it is the mechanism's own scratch, valid until that
// mechanism's next call.
type Prediction struct {
	Pred  []int
	Proba *linalg.Tensor
}

// Trace receives what the mechanisms measure while they run: stage timings,
// fusion weights, window closes (the evidence they return, core records).
// The core observer implements it; every implementation must tolerate being
// driven from the learner's hot path, and the learner passes a nil-safe
// wrapper so strategies never guard their trace calls.
type Trace interface {
	// StageStart returns the stage start time (zero when tracing is off).
	StageStart() time.Time
	// StageDone closes a stage opened with StageStart.
	StageDone(stage string, t0 time.Time)
	// Weights records the fusion weights the ensemble members received. ws
	// is the caller's scratch, valid only during the call: an implementation
	// that keeps the weights keeps a copy.
	Weights(ws []float64)
	// WindowClosed marks that this batch's push closed the window.
	WindowClosed()
}

// nopTrace backs a nil Trace so strategies can call hooks unconditionally.
type nopTrace struct{}

func (nopTrace) StageStart() time.Time       { return time.Time{} }
func (nopTrace) StageDone(string, time.Time) {}
func (nopTrace) Weights([]float64)           {}
func (nopTrace) WindowClosed()               {}

// ensureTrace substitutes the no-op trace for nil.
func ensureTrace(tr Trace) Trace {
	if tr == nil {
		return nopTrace{}
	}
	return tr
}

// normalizeDistances rescales the members' finite distances by their mean,
// leaving infinite distances (untrained models) untouched. Degenerate cases
// (no finite distances, zero mean) are left as-is.
func normalizeDistances(members []member) {
	var sum float64
	n := 0
	for _, m := range members {
		if !math.IsInf(m.distance, 0) {
			sum += m.distance
			n++
		}
	}
	if n == 0 || sum == 0 {
		return
	}
	mean := sum / float64(n)
	for i := range members {
		if !math.IsInf(members[i].distance, 0) {
			members[i].distance /= mean
		}
	}
}

// centroidDistance returns the Euclidean distance, or +Inf when the model
// has no training distribution yet (its kernel weight then vanishes).
func centroidDistance(y, centroid linalg.Vector) float64 {
	if y == nil || centroid == nil || len(y) != len(centroid) {
		return math.Inf(1)
	}
	return y.Distance(centroid)
}
