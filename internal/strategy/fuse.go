package strategy

import (
	"errors"
	"math"
	"slices"

	"freewayml/internal/linalg"
)

// The distance-based adaptive ensemble of paper Eq. 12-14: each member's
// prediction is weighted by a Gaussian kernel of its model shift distance D —
// the distance between the model's training distribution and the live data —
// so the model that best matches the current distribution dominates the fused
// output.

// kernel is the Gaussian kernel K(D, σ) = exp(−D² / (2σ²)) of Eq. 14.
// A non-positive σ panics: the caller owns config validation.
func kernel(d, sigma float64) float64 {
	if sigma <= 0 {
		panic("strategy: sigma must be positive")
	}
	return math.Exp(-(d * d) / (2 * sigma * sigma))
}

// member is one model's contribution to the fusion: its per-sample class
// probabilities, class-major (classes × samples), and its place relative to
// the live distribution — the centroid of its training distribution, whose
// distance to ȳ is its model shift distance D (Eq. 12/13), or, for a knowledge
// match, whose store measured D, that distance itself (measured). The
// probabilities are scratch — the model's, its owner's or a reader's
// workspace's — that the fusion only reads: whoever builds a member keeps
// that scratch still until the fusion has returned.
type member struct {
	proba    *linalg.Tensor
	centroid linalg.Vector
	distance float64
	measured bool
}

// fuseAt is the one fusion of Eq. 12-14, which both planes answer with: a
// reader over a snapshot's members (Snapshot.InferInto) and the training plane
// over its own (Ensemble.Infer). At the live distribution yBar each member's
// distance D is taken from its centroid (a knowledge match brings the store's);
// the distances are normalized by their mean, so the kernel width σ is
// scale-free — the projected space's units vary per dataset, and Eq. 14 only
// cares about the models' relative match to the live data; the members are
// fused into dst with weights K(Dᵢ,σ)/ΣK (fuse), written over weights' storage;
// and the labels are taken down dst's columns.
func fuseAt(dst *linalg.Tensor, weights []float64, members []member, yBar linalg.Vector, sigma float64) (Prediction, []float64, error) {
	for i := range members {
		if !members[i].measured {
			members[i].distance = centroidDistance(yBar, members[i].centroid)
		}
	}
	normalizeDistances(members)
	weights, err := fuse(dst, weights, members, sigma)
	if err != nil {
		return Prediction{}, nil, err
	}
	return prediction(dst), weights, nil
}

// fuse combines the members' probability outputs per Eq. 14:
// y = Σ K(Dᵢ,σ)·yᵢ / Σ K(Dᵢ,σ), element by element over the members' common
// shape, into dst (the caller's scratch, reshaped to that shape; it aliases no
// member). It returns the normalized weight K(Dᵢ,σ)/ΣK each member received,
// written over weights' storage (grown when it is short). When every kernel
// underflows to zero (all distances enormous) the weights fall back to uniform
// rather than leaving a zero sum to divide by.
func fuse(dst *linalg.Tensor, weights []float64, members []member, sigma float64) ([]float64, error) {
	if len(members) == 0 {
		return nil, errors.New("strategy: fuse: no members")
	}
	if sigma <= 0 {
		return nil, errors.New("strategy: fuse: sigma must be positive")
	}
	rows, cols := members[0].proba.Rows, members[0].proba.Cols
	for _, m := range members {
		if m.proba.Rows != rows || m.proba.Cols != cols {
			return nil, errors.New("strategy: fuse: member shapes differ")
		}
	}
	weights = slices.Grow(weights[:0], len(members))[:len(members)] // K(Dᵢ,σ), until normalized below
	var totalW float64
	for i, m := range members {
		weights[i] = kernel(m.distance, sigma)
		totalW += weights[i]
	}
	if totalW == 0 {
		for i := range weights {
			weights[i] = 1
		}
		totalW = float64(len(weights))
	}
	// One scaled-add sweep per member over the whole slab, members in order,
	// then one division pass: per element, the sum of Eq. 14 term by term.
	linalg.EnsureTensor(dst, rows, cols)
	clear(dst.Data)
	for i, m := range members {
		linalg.Axpy(weights[i], m.proba.Data, dst.Data)
	}
	linalg.DivScalar(dst.Data, totalW)
	for i := range weights {
		weights[i] /= totalW
	}
	return weights, nil
}

// prediction turns class-major distributions (classes × samples) into what a
// strategy returns: the labels by a first-max down each sample's column, and
// p itself, a view of the mechanism's scratch (no copy).
func prediction(p *linalg.Tensor) Prediction {
	pred := make([]int, p.Cols)
	linalg.ArgmaxCols(pred, p)
	return Prediction{Pred: pred, Proba: p}
}
