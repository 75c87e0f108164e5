// Package cluster implements the unsupervised substrate of FreewayML's
// sudden-shift mechanism: k-means with k-means++ seeding, and the coherent
// experience clustering (CEC) of paper Sec. IV-C, which maps unlabeled
// clusters onto labels using the most recent labeled points — the "coherent
// experience" — clustered jointly with the new batch.
package cluster

import (
	"errors"
	"math"
	"math/rand"

	"freewayml/internal/linalg"
)

// KMeansResult holds a fitted clustering.
type KMeansResult struct {
	Centroids  [][]float64
	Assignment []int // Assignment[i] is the cluster of point i
	Iterations int
}

// maxKMeansIterations bounds Lloyd's algorithm; the small per-batch
// clusterings CEC runs converge in a handful of iterations.
const maxKMeansIterations = 50

// KMeans clusters the rows of points into k clusters using k-means++
// initialization followed by Lloyd iterations, deterministic for a given
// seed. It returns an error when there are no points or fewer than k.
func KMeans(points *linalg.Tensor, k int, seed int64) (*KMeansResult, error) {
	if points == nil || points.Rows == 0 {
		return nil, errors.New("cluster: no points")
	}
	n := points.Rows
	if k < 1 {
		return nil, errors.New("cluster: k must be >= 1")
	}
	if n < k {
		return nil, errors.New("cluster: fewer points than clusters")
	}
	rng := rand.New(rand.NewSource(seed))
	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, n)
	counts := make([]int, k)

	iters := 0
	for ; iters < maxKMeansIterations; iters++ {
		changed := false
		for i := range n {
			p := points.Row(i)
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iters > 0 {
			break
		}
		// Recompute centroids.
		for c := range centroids {
			clear(centroids[c])
			counts[c] = 0
		}
		for i := range n {
			c := assign[i]
			counts[c]++
			for j, v := range points.Row(i) {
				centroids[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centroids[c], points.Row(rng.Intn(n)))
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] *= inv
			}
		}
	}
	return &KMeansResult{Centroids: centroids, Assignment: assign, Iterations: iters}, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting: the
// rows of one k × dim slab.
func seedPlusPlus(points *linalg.Tensor, k int, rng *rand.Rand) [][]float64 {
	n := points.Rows
	all := linalg.NewTensor(k, points.Cols).RowViews(nil)
	centroids := all[:0]
	centroids = append(centroids, all[0])
	copy(all[0], points.Row(rng.Intn(n)))

	d2 := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i := range n {
			p := points.Row(i)
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		next := n - 1
		if total == 0 {
			next = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			for i, w := range d2 {
				acc += w
				if acc >= target {
					next = i
					break
				}
			}
		}
		c := all[len(centroids)]
		copy(c, points.Row(next))
		centroids = append(centroids, c)
	}
	return centroids
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Inertia returns the within-cluster sum of squared distances of a result
// over the points it was fitted on.
func (r *KMeansResult) Inertia(points *linalg.Tensor) float64 {
	var s float64
	for i, c := range r.Assignment {
		s += sqDist(points.Row(i), r.Centroids[c])
	}
	return s
}
