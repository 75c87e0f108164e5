package strategy

import (
	"errors"
	"math"

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
// probabilities, class-major (classes × samples), and its model shift
// distance D (Eq. 12/13). The probabilities are scratch — the model's, its
// owner's or a reader's workspace's — that fuse only reads: whoever builds a
// member keeps that scratch still until fuse has returned.
type member struct {
	proba    *linalg.Tensor
	distance float64
}

// fuse combines the members' probability outputs per Eq. 14:
// y = Σ K(Dᵢ,σ)·yᵢ / Σ K(Dᵢ,σ), element by element over the members' common
// shape, into dst (the caller's scratch, reshaped to that shape; it aliases no
// member). It returns the normalized weight K(Dᵢ,σ)/ΣK each member received.
// When every kernel underflows to zero (all distances enormous) the weights
// fall back to uniform rather than leaving a zero sum to divide by.
func fuse(dst *linalg.Tensor, members []member, sigma float64) (weights []float64, err error) {
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
	weights = make([]float64, len(members)) // K(Dᵢ,σ), until normalized below
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
