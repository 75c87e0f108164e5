package strategy

import (
	"fmt"
	"math"

	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/shift"
)

// KnowledgeReuse is the Pattern-C mechanism: when a distribution reoccurs,
// the nearest preserved snapshot is restored and fused with the live
// fixed-frequency models (paper Sec. IV-D). It returns evidence: whether the
// match is reused or adopted is the dispatch table's (core), the fusion the
// ensemble's. It is also the ensemble's preserver: the window close feeds it
// the β-policy preservation decision.
type KnowledgeReuse struct {
	store *knowledge.Store
	reuse model.Model   // scratch model for restores
	proba linalg.Tensor // the restored model's distributions (Restore's scratch)
	beta  float64       // disorder threshold of the preservation policy
}

// NewKnowledgeReuse builds the mechanism over the learner's own knowledge
// store. reuse is a scratch model of the stream's shape.
func NewKnowledgeReuse(store *knowledge.Store, reuse model.Model, beta float64) *KnowledgeReuse {
	return &KnowledgeReuse{store: store, reuse: reuse, beta: beta}
}

// KnowledgeMatch is knowledge reuse's evidence for a batch: the nearest
// preserved model's image and its distance to the live distribution (Snap
// nil and Dist +Inf when the store holds no eligible entry). Once Restore
// ran, Proba is the restored model's class-major distributions over the
// batch: the mechanism's scratch, valid until the next Restore.
type KnowledgeMatch struct {
	Snap  []byte
	Dist  float64
	Proba *linalg.Tensor
}

// Match finds the preserved distribution nearest to the live one, yBar
// (paper Sec. IV-D knowledge match).
func (k *KnowledgeReuse) Match(yBar linalg.Vector, tr Trace) (KnowledgeMatch, error) {
	tr = ensureTrace(tr)
	tMatch := tr.StageStart()
	snap, dist, ok, err := k.store.Match(yBar)
	tr.StageDone(StageKnowledgeLookup, tMatch)
	if err != nil {
		return KnowledgeMatch{}, fmt.Errorf("strategy: knowledge match: %w", err)
	}
	if !ok {
		return KnowledgeMatch{Dist: math.Inf(1)}, nil
	}
	return KnowledgeMatch{Snap: snap, Dist: dist}, nil
}

// Restore loads m's model into the scratch model and sets m.Proba to its
// distributions over the batch rows x.
func (k *KnowledgeReuse) Restore(m *KnowledgeMatch, x *linalg.Tensor) error {
	if err := k.reuse.Restore(m.Snap); err != nil {
		return fmt.Errorf("strategy: knowledge restore: %w", err)
	}
	k.reuse.Net().ProbaInto(&k.proba, x)
	m.Proba = &k.proba
	return nil
}

// decide applies the disorder-threshold policy of Sec. IV-D1 to the window a
// close begins on.
func (k *KnowledgeReuse) decide(disorder float64) knowledge.Decision {
	return knowledge.Policy{Beta: k.beta}.Decide(disorder)
}

// PreserveAtWindowClose stores what decide kept when a window close began (the
// zero Decision for a window without a distribution). The ensemble calls it on
// the training goroutine as the close lands: long is the long model as the
// close left it, stored at the window's distribution; shortSnap is the short
// model's image as the close began (nil unless keep.SaveShort), stored at the
// closing batch's centroid.
func (k *KnowledgeReuse) PreserveAtWindowClose(keep knowledge.Decision, distribution linalg.Vector, long model.Model, shortSnap []byte, replaceRadius float64, obs shift.Observation) error {
	if keep.SaveLong {
		if err := k.store.PreserveOrReplace(distribution, long.Net().AppendSnapshot(nil), "long", obs.Batch, replaceRadius); err != nil {
			return err
		}
	}
	if shortSnap != nil {
		return k.store.PreserveOrReplace(obs.YBar, shortSnap, "short", obs.Batch, replaceRadius)
	}
	return nil
}
