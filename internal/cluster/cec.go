package cluster

import (
	"errors"
	"math"

	"freewayml/internal/linalg"
)

// CEC performs coherent experience clustering (paper Sec. IV-C): it clusters
// the unlabeled current batch together with m recent labeled points, then
// maps each cluster to the majority label of its labeled members. Clusters
// containing no labeled member inherit the label of the nearest labeled
// cluster centroid. It returns the predicted labels for the unlabeled batch.
//
// numClasses is c, the number of clusters (one per label, as in the paper).
// seed makes the clustering deterministic. It is CECJoint with k =
// numClasses for a batch held as loose rows: the rows and the experience are
// staged into one joint slab first.
func CEC(batch [][]float64, expX *linalg.Tensor, expY []int, numClasses int, seed int64) ([]int, error) {
	if len(batch) == 0 {
		return nil, errors.New("cluster: CEC empty batch")
	}
	if expX == nil || expX.Rows != len(expY) {
		return nil, errors.New("cluster: CEC experience size mismatch")
	}
	cols := len(batch[0])
	for _, row := range batch {
		if len(row) != cols {
			return nil, errors.New("cluster: ragged points")
		}
	}
	if expX.Cols != cols && expX.Rows > 0 {
		return nil, errors.New("cluster: ragged points")
	}
	joint := linalg.NewTensor(len(batch)+expX.Rows, cols)
	for i, row := range batch {
		copy(joint.Row(i), row)
	}
	copy(joint.Data[len(batch)*cols:], expX.Data)
	pred, _, err := CECJoint(joint, len(batch), expY, numClasses, numClasses, seed)
	return pred, err
}

// CECStats reports the clustering evidence behind one CEC dispatch — the
// decision-trace payload for Pattern B batches.
type CECStats struct {
	// K is the effective cluster count (clamped to the joint point count).
	K int
	// Iterations is how many Lloyd iterations k-means ran.
	Iterations int
	// ExperiencePoints is the size of the coherent experience used.
	ExperiencePoints int
	// Agreement is the labeled-experience agreement (see CECJoint).
	Agreement float64
	// DeployedAgreement is the deployed model's agreement with the same
	// labeled experience points: the other side of the CEC arbitration. The
	// clustering leaves it zero; the caller that arbitrates fills it in.
	DeployedAgreement float64
}

// CECJoint is CEC over one joint slab, the batch's batchRows rows first and
// then the labeled experience's, one per label of expY, with an independent
// cluster count k ≥ numClasses, returning the clustering evidence.
// Over-clustering lets non-spherical or imbalanced classes occupy several
// clusters each, with the majority-label vote still mapping every cluster to
// one label. The evidence's Agreement is the fraction of labeled experience
// points whose cluster-mapped label matches their true label: near 1 the
// clustering aligns with the class structure; low, clusters cut across
// classes and the CEC output should not be trusted (the quality check behind
// the paper's limitation discussion in Sec. VI-F).
func CECJoint(joint *linalg.Tensor, batchRows int, expY []int, k, numClasses int, seed int64) ([]int, CECStats, error) {
	if k < numClasses {
		return nil, CECStats{}, errors.New("cluster: CECK needs k >= numClasses")
	}
	if batchRows <= 0 {
		return nil, CECStats{}, errors.New("cluster: CEC empty batch")
	}
	if joint.Rows-batchRows != len(expY) {
		return nil, CECStats{}, errors.New("cluster: CEC experience size mismatch")
	}
	if len(expY) == 0 {
		return nil, CECStats{}, errors.New("cluster: CEC requires labeled experience")
	}
	if numClasses < 1 {
		return nil, CECStats{}, errors.New("cluster: CEC numClasses must be >= 1")
	}
	for _, y := range expY {
		if y < 0 || y >= numClasses {
			return nil, CECStats{}, errors.New("cluster: CEC experience label out of range")
		}
	}

	// Joint clustering of current batch + coherent experience.
	k = min(k, joint.Rows)
	res, err := KMeans(joint, k, seed)
	if err != nil {
		return nil, CECStats{}, err
	}

	clusterLabel := clusterLabels(res.Centroids, res.Assignment[batchRows:], expY, numClasses)
	out := make([]int, batchRows)
	for i := range out {
		out[i] = clusterLabel[res.Assignment[i]]
	}

	// Experience agreement: how well the mapping reproduces the known
	// labels of the experience points.
	correct := 0
	for j, y := range expY {
		if clusterLabel[res.Assignment[batchRows+j]] == y {
			correct++
		}
	}
	agreement := float64(correct) / float64(len(expY))
	st := CECStats{K: k, Iterations: res.Iterations, ExperiencePoints: len(expY), Agreement: agreement}
	return out, st, nil
}

// clusterLabels maps every cluster to a label. The labeled members elect it:
// expAssign[j] is the cluster of the experience point labeled expY[j], and a
// cluster takes its most frequent label (the lowest on ties). A cluster with
// no labeled member inherits the label of the nearest cluster centroid that
// the vote labeled — never one that only inherited its own, so the order of
// the clusters does not matter.
func clusterLabels(centroids [][]float64, expAssign, expY []int, numClasses int) []int {
	votes := make([][]int, len(centroids))
	for i := range votes {
		votes[i] = make([]int, numClasses)
	}
	for j, y := range expY {
		votes[expAssign[j]][y]++
	}
	voted := make([]int, len(centroids))
	for c := range voted {
		voted[c] = -1
		best := 0
		for y, n := range votes[c] {
			if n > best {
				best = n
				voted[c] = y
			}
		}
	}
	labels := make([]int, len(centroids))
	for c := range labels {
		labels[c] = voted[c]
		if voted[c] >= 0 {
			continue
		}
		bestD := math.Inf(1)
		labels[c] = 0
		for c2, y := range voted {
			if y < 0 {
				continue
			}
			if d := sqDist(centroids[c], centroids[c2]); d < bestD {
				bestD = d
				labels[c] = y
			}
		}
	}
	return labels
}
