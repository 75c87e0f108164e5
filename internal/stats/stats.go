// Package stats provides the scalar statistics FreewayML's shift detector
// and adaptive streaming window rely on: weighted means and standard
// deviations over recent shift distances (Eq. 8-10 of the paper), the
// inversion-count "disorder" of a distance ranking (Eq. 11), z-scores, and a
// fixed-capacity sliding window.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by aggregate functions given no observations.
var ErrEmpty = errors.New("stats: empty input")

// WeightedMean implements Eq. 8: μ_d = Σ wᵢ·dᵢ / Σ wᵢ. The two slices must
// have equal nonzero length and the weights must have a positive sum.
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ws) {
		return 0, errors.New("stats: weights length mismatch")
	}
	var num, den float64
	for i, x := range xs {
		num += ws[i] * x
		den += ws[i]
	}
	if den <= 0 {
		return 0, errors.New("stats: non-positive weight sum")
	}
	return num / den, nil
}

// StdDevAround implements Eq. 9: the root-mean-square deviation of xs around
// a given center (typically the weighted mean from Eq. 8).
func StdDevAround(xs []float64, center float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		d := x - center
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs))), nil
}

// ZScore implements Eq. 10: M = (x − μ) / σ. A zero σ yields +Inf for x > μ,
// −Inf for x < μ, and 0 for x == μ, so that a genuinely novel distance after
// a flat history still classifies as a sudden shift.
func ZScore(x, mu, sigma float64) float64 {
	if sigma == 0 {
		switch {
		case x > mu:
			return math.Inf(1)
		case x < mu:
			return math.Inf(-1)
		default:
			return 0
		}
	}
	return (x - mu) / sigma
}

// RecencyWeights returns k weights for Eq. 8 where index 0 is the most
// recent observation. Weights decay geometrically by factor decay per step
// back in time; decay must be in (0, 1]. decay == 1 gives uniform weights.
func RecencyWeights(k int, decay float64) []float64 {
	if k <= 0 {
		return nil
	}
	if decay <= 0 || decay > 1 {
		panic("stats: RecencyWeights decay must be in (0, 1]")
	}
	ws := make([]float64, k)
	w := 1.0
	for i := 0; i < k; i++ {
		ws[i] = w
		w *= decay
	}
	return ws
}

// Inversions implements the paper's Eq. 11 disorder measure: the number of
// pairs (i, j) with i < j and τᵢ > τⱼ in the ranking τ. It runs in
// O(n log n) via merge-sort counting so the ASW can evaluate disorder on
// every incoming batch; a window's worth of ranks is counted pair by pair,
// which allocates nothing.
func Inversions(ranks []int) int {
	if len(ranks) <= 16 {
		inv := 0
		for i, a := range ranks {
			for _, b := range ranks[i+1:] {
				if a > b {
					inv++
				}
			}
		}
		return inv
	}
	buf := make([]int, len(ranks))
	work := make([]int, len(ranks))
	copy(work, ranks)
	return mergeCount(work, buf, 0, len(work))
}

func mergeCount(a, buf []int, lo, hi int) int {
	if hi-lo < 2 {
		return 0
	}
	mid := (lo + hi) / 2
	inv := mergeCount(a, buf, lo, mid) + mergeCount(a, buf, mid, hi)
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if a[i] <= a[j] {
			buf[k] = a[i]
			i++
		} else {
			buf[k] = a[j]
			inv += mid - i
			j++
		}
		k++
	}
	for i < mid {
		buf[k] = a[i]
		i, k = i+1, k+1
	}
	for j < hi {
		buf[k] = a[j]
		j, k = j+1, k+1
	}
	copy(a[lo:hi], buf[lo:hi])
	return inv
}

// NormalizedDisorder maps an inversion count over n elements to [0, 1] by
// dividing by the maximum possible n(n−1)/2. Sequences shorter than 2 have
// disorder 0.
func NormalizedDisorder(ranks []int) float64 {
	n := len(ranks)
	if n < 2 {
		return 0
	}
	maxInv := n * (n - 1) / 2
	return float64(Inversions(ranks)) / float64(maxInv)
}
