package strategy

import (
	"context"
	"fmt"
	"math"

	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
)

// KnowledgeReuse is the Pattern-C mechanism: when a distribution reoccurs,
// the nearest preserved snapshot is restored and fused with the live
// fixed-frequency models (paper Sec. IV-D). It is also the ensemble's
// preserver: the window close feeds it the β-policy preservation decision.
type KnowledgeReuse struct {
	store *knowledge.Store
	reuse model.Model // scratch model for restores
	ens   *Ensemble   // live members for the fusion + adoption target

	// Infer's scratch: the member list, the reuse model's distributions and
	// the fused ones, which Infer's Prediction views until the next Infer.
	members      []member
	proba, fused linalg.Tensor

	sigma        float64 // Gaussian-kernel width of the fusion
	beta         float64 // disorder threshold of the preservation policy
	reoccurRatio float64 // confidence gate, shared with Pattern-C detection
}

// NewKnowledgeReuse builds the mechanism over the learner's own knowledge
// store. reuse is a scratch model of the stream's shape.
func NewKnowledgeReuse(store *knowledge.Store, reuse model.Model, ens *Ensemble, sigma, beta, reoccurRatio float64) *KnowledgeReuse {
	return &KnowledgeReuse{store: store, reuse: reuse, ens: ens, sigma: sigma, beta: beta, reoccurRatio: reoccurRatio}
}

// Infer restores the nearest historical snapshot when it is closer to the
// current distribution than the previous batch was (paper Sec. IV-D
// knowledge match); ok=false when nothing qualifies.
func (k *KnowledgeReuse) Infer(ctx context.Context, b stream.Batch, obs shift.Observation, tr Trace) (Prediction, bool, error) {
	tr = ensureTrace(tr)
	tMatch := tr.StageStart()
	snap, dist, ok, err := k.store.Match(obs.YBar)
	tr.StageDone(StageKnowledgeLookup, tMatch)
	if err != nil {
		return Prediction{}, false, fmt.Errorf("strategy: knowledge match: %w", err)
	}
	// Reuse only confident matches: the preserved distribution must be
	// meaningfully closer than the batch we just shifted away from (same
	// ratio as the Pattern C detection rule), else a marginal restore can
	// displace a continuously-trained model that is already adequate.
	if !ok || dist >= k.reoccurRatio*obs.Distance {
		if !ok {
			dist = math.Inf(1) // no eligible entry: trace it as -1
		}
		tr.Knowledge(false, dist)
		return Prediction{}, false, nil
	}
	tr.Knowledge(true, dist)
	if err := k.reuse.Restore(snap); err != nil {
		return Prediction{}, false, fmt.Errorf("strategy: knowledge restore: %w", err)
	}

	// The restored model joins the distance ensemble rather than replacing
	// it outright: its matched distance is far smaller than the current
	// models' post-shift distances, so it dominates the kernel weighting —
	// but if the live models are still competitive the fusion keeps their
	// signal. The long model deliberately stays out: it smooths over the
	// departed regime.
	k.reuse.Net().ProbaInto(&k.proba, b.X)
	k.members = k.ens.granMembers(append(k.members[:0], member{proba: &k.proba, distance: dist}), obs.YBar, k.ens.batchWorkspace(b))
	normalizeDistances(k.members)
	weights, err := fuse(&k.fused, k.members, k.sigma)
	if err != nil {
		return Prediction{}, false, fmt.Errorf("strategy: knowledge fuse: %w", err)
	}
	tr.Weights(weights)
	pred := prediction(&k.fused)

	// Reuse means not relearning (SC3): on a confident match the preserved
	// parameters also become the working short model, so subsequent batches
	// of the reoccurred regime start from them instead of re-adapting from
	// the departed regime's.
	if dist < 0.5*k.reoccurRatio*obs.Distance {
		if err := k.ens.AdoptShort(snap, obs.YBar); err != nil {
			return Prediction{}, false, fmt.Errorf("strategy: knowledge adopt: %w", err)
		}
	}
	return pred, true, nil
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
		if err := k.store.PreserveOrReplace(distribution, long.AppendSnapshot(nil), "long", obs.Batch, replaceRadius); err != nil {
			return err
		}
	}
	if shortSnap != nil {
		return k.store.PreserveOrReplace(obs.YBar, shortSnap, "short", obs.Batch, replaceRadius)
	}
	return nil
}
