package strategy

import (
	"errors"
	"math"

	"freewayml/internal/linalg"
	"freewayml/internal/nn"
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
// probabilities (samples × classes) and its model shift distance D
// (Eq. 12/13). The probabilities are scratch — the model's, its owner's or a
// reader's workspace's — that fuse only reads: whoever builds a member keeps
// that scratch still until fuse has returned.
type member struct {
	proba    *linalg.Tensor
	distance float64
}

// fuse combines the members' probability outputs per Eq. 14:
// y = Σ K(Dᵢ,σ)·yᵢ / Σ K(Dᵢ,σ). All members must cover the same samples and
// classes. The fused distributions are one fresh samples × classes slab that
// aliases no member. It also returns the normalized weight K(Dᵢ,σ)/ΣK each
// member received. When every kernel underflows to zero (all distances
// enormous) the weights fall back to uniform rather than leaving a zero sum to
// divide by.
func fuse(members []member, sigma float64) (fused linalg.Tensor, weights []float64, err error) {
	if len(members) == 0 {
		return linalg.Tensor{}, nil, errors.New("strategy: fuse: no members")
	}
	if sigma <= 0 {
		return linalg.Tensor{}, nil, errors.New("strategy: fuse: sigma must be positive")
	}
	n, classes := members[0].proba.Rows, members[0].proba.Cols
	for _, m := range members {
		if m.proba.Rows != n {
			return linalg.Tensor{}, nil, errors.New("strategy: fuse: member sample counts differ")
		}
		if m.proba.Cols != classes {
			return linalg.Tensor{}, nil, errors.New("strategy: fuse: member class counts differ")
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
	fused = linalg.Tensor{Rows: n, Cols: classes, Data: make([]float64, n*classes)}
	for i, m := range members {
		linalg.Axpy(weights[i], m.proba.Data, fused.Data)
	}
	linalg.DivScalar(fused.Data, totalW)
	for i := range weights {
		weights[i] /= totalW
	}
	return fused, weights, nil
}

// argmaxRows maps per-sample class distributions to hard labels.
func argmaxRows(proba *linalg.Tensor) []int {
	out := make([]int, proba.Rows)
	for i := range out {
		out[i] = nn.Argmax(proba.Data[i*proba.Cols : (i+1)*proba.Cols])
	}
	return out
}
