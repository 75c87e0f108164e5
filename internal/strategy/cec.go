package strategy

import (
	"context"
	"fmt"
	"sort"

	"freewayml/internal/cluster"
	"freewayml/internal/metrics"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
)

// cecMargin is how much CEC's experience agreement must exceed the deployed
// model's before CEC takes over.
const cecMargin = 0.05

// CEC is the Pattern-B mechanism: coherent experience clustering. When a
// sudden shift leaves every trained model unsuitable, the batch is jointly
// clustered with the labeled experience closest to it, and clusters adopt
// the majority label of their experience points (paper Sec. IV-C).
type CEC struct {
	exp  *cluster.ExpBuffer
	ens  *Ensemble // arbitration target: the deployed short model
	seed int64
	// batchNum decorrelates the clustering seed across batches.
	batchNum func() int
}

// NewCEC builds the mechanism over the shared experience buffer. ens
// supplies the deployed model CEC must beat before displacing it.
func NewCEC(exp *cluster.ExpBuffer, ens *Ensemble, seed int64, batchNum func() int) *CEC {
	return &CEC{exp: exp, ens: ens, seed: seed, batchNum: batchNum}
}

// Infer runs coherent experience clustering; ok=false when no labeled
// experience is available yet or CEC loses the arbitration against the
// deployed model.
func (c *CEC) Infer(ctx context.Context, b stream.Batch, obs shift.Observation, tr Trace) (Prediction, bool, error) {
	tr = ensureTrace(tr)
	expX, expY := c.exp.Experience()
	if len(expX) == 0 {
		return Prediction{}, false, nil
	}
	// Per the paper, CEC uses "a small subset of labeled data that is
	// closest to the current batch": under the coherence hypothesis the
	// tail of the previous batch already samples the incoming distribution,
	// and proximity selection finds exactly those points. Distant (pre-
	// shift) experience would pull the joint clustering apart by regime
	// instead of by class.
	m := len(b.X) / 4
	if m < 1 {
		m = 1
	}
	expX, expY = nearestExperience(b.X, expX, expY, m)
	deployed := c.ens.ShortModel()
	classes := deployed.NumClasses()
	// Over-cluster (k = 2c): imbalanced or non-spherical classes occupy
	// several clusters each; the majority vote still maps every cluster to
	// a label.
	tCEC := tr.StageStart()
	pred, st, err := cluster.CECKWithStats(b.X, expX, expY, 2*classes, classes, c.seed+int64(c.batchNum()))
	tr.StageDone(StageCluster, tCEC)
	if err != nil {
		return Prediction{}, false, fmt.Errorf("strategy: CEC: %w", err)
	}
	tr.CEC(st)
	// Arbitration on the coherent experience: the experience points are
	// labeled and (by the coherence hypothesis) drawn from the incoming
	// distribution, so they measure both CEC's cluster/label alignment and
	// whether the deployed model is actually unsuitable. CEC replaces the
	// model only when it wins that comparison (the failure mode of paper
	// Sec. VI-F is exactly CEC losing it).
	deployedPred := deployed.Predict(expX)
	deployedAgree, err := metrics.Accuracy(deployedPred, expY)
	if err != nil {
		return Prediction{}, false, err
	}
	// Both estimates come from a handful of points, so CEC must win by a
	// clear margin before displacing the deployed model.
	if st.Agreement <= deployedAgree+cecMargin {
		return Prediction{}, false, nil
	}
	return Prediction{Pred: pred}, true, nil
}

// Train folds the labeled batch into the coherent experience buffer.
func (c *CEC) Train(ctx context.Context, b stream.Batch, obs shift.Observation, tr Trace) error {
	return c.exp.AddBatch(b.X, b.Y)
}

// nearestExperience returns the m labeled experience points closest to the
// batch's centroid.
func nearestExperience(batch [][]float64, expX [][]float64, expY []int, m int) ([][]float64, []int) {
	if m >= len(expX) {
		return expX, expY
	}
	centroid := make([]float64, len(batch[0]))
	for _, row := range batch {
		for j, v := range row {
			centroid[j] += v
		}
	}
	for j := range centroid {
		centroid[j] /= float64(len(batch))
	}
	type scored struct {
		idx  int
		dist float64
	}
	scores := make([]scored, len(expX))
	for i, x := range expX {
		var d float64
		for j := range x {
			diff := x[j] - centroid[j]
			d += diff * diff
		}
		scores[i] = scored{idx: i, dist: d}
	}
	sort.Slice(scores, func(a, b int) bool { return scores[a].dist < scores[b].dist })
	outX := make([][]float64, m)
	outY := make([]int, m)
	for i := 0; i < m; i++ {
		outX[i] = expX[scores[i].idx]
		outY[i] = expY[scores[i].idx]
	}
	return outX, outY
}
