package strategy

import (
	"fmt"
	"sort"

	"freewayml/internal/cluster"
	"freewayml/internal/metrics"
	"freewayml/internal/model"
	"freewayml/internal/stream"
)

// CEC is the Pattern-B mechanism: coherent experience clustering. When a
// sudden shift leaves every trained model unsuitable, the batch is jointly
// clustered with the labeled experience closest to it, and clusters adopt
// the majority label of their experience points (paper Sec. IV-C). It
// returns evidence: whether its labels serve is the dispatch table's (core).
type CEC struct {
	exp  *cluster.ExpBuffer
	seed int64
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

// Infer clusters the batch with its nearest labeled experience, seeding
// k-means with the mechanism's seed plus batch (the stream position), and
// scores deployed, the model CEC would displace, on the same experience
// points.
func (c *CEC) Infer(b stream.Batch, deployed model.Model, batch int, tr Trace) (CECEvidence, error) {
	tr = ensureTrace(tr)
	expX, expY := c.exp.Experience()
	if len(expX) == 0 {
		return CECEvidence{}, nil
	}
	// Per the paper, CEC uses "a small subset of labeled data that is
	// closest to the current batch": under the coherence hypothesis the
	// tail of the previous batch already samples the incoming distribution,
	// and proximity selection finds exactly those points. Distant (pre-
	// shift) experience would pull the joint clustering apart by regime
	// instead of by class.
	expX, expY = nearestExperience(b.X, expX, expY, max(len(b.X)/4, 1))
	classes := deployed.NumClasses()
	// Over-cluster (k = 2c): imbalanced or non-spherical classes occupy
	// several clusters each; the majority vote still maps every cluster to
	// a label.
	tCEC := tr.StageStart()
	pred, st, err := cluster.CECKWithStats(b.X, expX, expY, 2*classes, classes, c.seed+int64(batch))
	tr.StageDone(StageCluster, tCEC)
	if err != nil {
		return CECEvidence{}, fmt.Errorf("strategy: CEC: %w", err)
	}
	// The coherent experience points are labeled and (by the coherence
	// hypothesis) drawn from the incoming distribution, so they measure both
	// CEC's cluster/label alignment and whether the deployed model is
	// actually unsuitable (the failure mode of paper Sec. VI-F is CEC losing
	// that comparison).
	if st.DeployedAgreement, err = metrics.Accuracy(deployed.Predict(expX), expY); err != nil {
		return CECEvidence{}, err
	}
	return CECEvidence{Pred: pred, Stats: st}, nil
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
