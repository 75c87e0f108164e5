// Package ensemble implements FreewayML's distance-based adaptive ensemble
// (paper Eq. 12-14): each granularity model's prediction is weighted by a
// Gaussian kernel of its model shift distance D — the distance between the
// model's training distribution and the live data — so the model that best
// matches the current distribution dominates the fused output.
package ensemble

import (
	"errors"
	"math"

	"freewayml/internal/linalg"
)

// Kernel is the Gaussian kernel K(D, σ) = exp(−D² / (2σ²)) of Eq. 14.
// A non-positive σ panics: the caller owns config validation.
func Kernel(d, sigma float64) float64 {
	if sigma <= 0 {
		panic("ensemble: sigma must be positive")
	}
	return math.Exp(-(d * d) / (2 * sigma * sigma))
}

// Member is one model's contribution to the fusion: its per-sample class
// probabilities and its model shift distance D (Eq. 12/13).
type Member struct {
	Proba    [][]float64
	Distance float64
}

// kernels returns K(Dᵢ,σ) for every distance and their sum. When every
// kernel underflows to zero (all distances enormous) it falls back to uniform
// weights rather than leaving a zero sum to divide by.
func kernels(distances []float64, sigma float64) (k []float64, total float64) {
	k = make([]float64, len(distances))
	for i, d := range distances {
		k[i] = Kernel(d, sigma)
		total += k[i]
	}
	if total == 0 {
		for i := range k {
			k[i] = 1
		}
		total = float64(len(k))
	}
	return k, total
}

// Fuse combines the members' probability outputs per Eq. 14:
// y = Σ K(Dᵢ,σ)·yᵢ / Σ K(Dᵢ,σ). All members must cover the same samples and
// classes. It also returns the normalized weight K(Dᵢ,σ)/ΣK each member
// received (what Weights computes), so callers that report the weights do not
// evaluate the kernels twice.
func Fuse(members []Member, sigma float64) (fused [][]float64, weights []float64, err error) {
	if len(members) == 0 {
		return nil, nil, errors.New("ensemble: no members")
	}
	if sigma <= 0 {
		return nil, nil, errors.New("ensemble: sigma must be positive")
	}
	n := len(members[0].Proba)
	for _, m := range members {
		if len(m.Proba) != n {
			return nil, nil, errors.New("ensemble: member sample counts differ")
		}
	}
	weights = make([]float64, len(members)) // the distances, until normalized below
	for i, m := range members {
		weights[i] = m.Distance
	}
	k, totalW := kernels(weights, sigma)
	for i := range weights {
		weights[i] = k[i] / totalW
	}
	if n == 0 {
		return [][]float64{}, weights, nil
	}
	classes := len(members[0].Proba[0])
	for _, m := range members {
		for s := 0; s < n; s++ {
			if len(m.Proba[s]) != classes {
				return nil, nil, errors.New("ensemble: member class counts differ")
			}
		}
	}
	// One flat accumulator for the whole batch; each member contributes one
	// scaled-add sweep per sample through the shared axpy kernel.
	flat := make([]float64, n*classes)
	fused = make([][]float64, n)
	for s := 0; s < n; s++ {
		row := flat[s*classes : (s+1)*classes : (s+1)*classes]
		for i, m := range members {
			linalg.Axpy(k[i], m.Proba[s], row)
		}
		for c := range row {
			row[c] /= totalW
		}
		fused[s] = row
	}
	return fused, weights, nil
}

// Weights returns the normalized kernel weights the members would receive —
// useful for introspection and the ablation benches.
func Weights(distances []float64, sigma float64) ([]float64, error) {
	if len(distances) == 0 {
		return nil, errors.New("ensemble: no distances")
	}
	if sigma <= 0 {
		return nil, errors.New("ensemble: sigma must be positive")
	}
	k, total := kernels(distances, sigma)
	for i := range k {
		k[i] /= total
	}
	return k, nil
}
