package strategy

import (
	"fmt"
	"sort"

	"freewayml/internal/cluster"
	"freewayml/internal/linalg"
	"freewayml/internal/metrics"
	"freewayml/internal/model"
)

// CEC is the Pattern-B mechanism: coherent experience clustering. When a
// sudden shift leaves every trained model unsuitable, the batch is jointly
// clustered with the labeled experience closest to it, and clusters adopt
// the majority label of their experience points (paper Sec. IV-C). It
// returns evidence: whether its labels serve is the dispatch table's (core).
type CEC struct {
	exp  *cluster.ExpBuffer
	seed int64

	// Infer's scratch: the joint slab (the batch, then the experience nearest
	// it) and the experience's labels.
	joint  linalg.Tensor
	jointY []int
}

// NewCEC builds the mechanism over the shared experience buffer.
func NewCEC(exp *cluster.ExpBuffer, seed int64) *CEC {
	return &CEC{exp: exp, seed: seed}
}

// CECEvidence is what coherent experience clustering found for a batch: the
// labels its clusters adopt (nil when there is no labeled experience yet)
// and the clustering evidence behind them, whose Agreement and
// DeployedAgreement are the two sides of the arbitration.
type CECEvidence struct {
	Pred  []int
	Stats cluster.CECStats
}

// Infer clusters the batch x with its nearest labeled experience, seeding
// k-means with the mechanism's seed plus batch (the stream position), and
// scores deployed, the model CEC would displace, on the same experience
// points.
func (c *CEC) Infer(x *linalg.Tensor, deployed model.Model, batch int, tr Trace) (CECEvidence, error) {
	tr = ensureTrace(tr)
	expX, expY := c.exp.Experience()
	if expX.Rows == 0 {
		return CECEvidence{}, nil
	}
	// Per the paper, CEC uses "a small subset of labeled data that is
	// closest to the current batch": under the coherence hypothesis the
	// tail of the previous batch already samples the incoming distribution,
	// and proximity selection finds exactly those points. Distant (pre-
	// shift) experience would pull the joint clustering apart by regime
	// instead of by class.
	c.jointY = c.nearestExperience(x, expX, expY, max(x.Rows/4, 1))
	classes := deployed.NumClasses()
	// Over-cluster (k = 2c): imbalanced or non-spherical classes occupy
	// several clusters each; the majority vote still maps every cluster to
	// a label.
	tCEC := tr.StageStart()
	pred, st, err := cluster.CECJoint(&c.joint, x.Rows, c.jointY, 2*classes, classes, c.seed+int64(batch))
	tr.StageDone(StageCluster, tCEC)
	if err != nil {
		return CECEvidence{}, fmt.Errorf("strategy: CEC: %w", err)
	}
	// The coherent experience points are labeled and (by the coherence
	// hypothesis) drawn from the incoming distribution, so they measure both
	// CEC's cluster/label alignment and whether the deployed model is
	// actually unsuitable (the failure mode of paper Sec. VI-F is CEC losing
	// that comparison).
	near := linalg.Tensor{Rows: len(c.jointY), Cols: x.Cols, Data: c.joint.Data[x.Rows*x.Cols:]}
	if st.DeployedAgreement, err = metrics.Accuracy(deployed.Net().PredictTensor(&near), c.jointY); err != nil {
		return CECEvidence{}, err
	}
	return CECEvidence{Pred: pred, Stats: st}, nil
}

// nearestExperience stages the joint slab: the batch's rows, then the m
// labeled experience points closest to the batch's centroid (all of them, in
// their order, when m covers them), whose labels it returns in jointY's
// storage.
func (c *CEC) nearestExperience(batch, exp *linalg.Tensor, expY []int, m int) []int {
	cols := batch.Cols
	linalg.EnsureTensor(&c.joint, batch.Rows+min(m, exp.Rows), cols)
	near := c.joint.Data[copy(c.joint.Data, batch.Data):]
	if m >= exp.Rows {
		copy(near, exp.Data)
		return append(c.jointY[:0], expY...)
	}
	centroid := make([]float64, cols)
	for i := range batch.Rows {
		for j, v := range batch.Row(i) {
			centroid[j] += v
		}
	}
	for j := range centroid {
		centroid[j] /= float64(batch.Rows)
	}
	type scored struct {
		idx  int
		dist float64
	}
	scores := make([]scored, exp.Rows)
	for i := range scores {
		var d float64
		for j, v := range exp.Row(i) {
			diff := v - centroid[j]
			d += diff * diff
		}
		scores[i] = scored{idx: i, dist: d}
	}
	sort.Slice(scores, func(a, b int) bool { return scores[a].dist < scores[b].dist })
	y := c.jointY[:0]
	for i, sc := range scores[:m] {
		copy(near[i*cols:(i+1)*cols], exp.Row(sc.idx))
		y = append(y, expY[sc.idx])
	}
	return y
}
