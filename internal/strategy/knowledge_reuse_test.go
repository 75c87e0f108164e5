package strategy

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
)

// knowledgeTrace records the knowledge lookup and the fusion weights.
type knowledgeTrace struct {
	nopTrace
	hit     bool
	dist    float64
	weights []float64
}

func (k *knowledgeTrace) Knowledge(hit bool, dist float64) { k.hit, k.dist = hit, dist }
func (k *knowledgeTrace) Weights(ws []float64)             { k.weights = append([]float64(nil), ws...) }

func flatBits(m model.Model) []uint64 {
	w := m.Net().AppendFlatParams(nil)
	bits := make([]uint64, len(w))
	for i, v := range w {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestKnowledgeReuseInferDistanceBands drives KnowledgeReuse.Infer directly
// over a store holding one known snapshot at the origin (paper Sec. IV-D:
// on a reoccurring distribution the nearest preserved model is restored and
// fused with the live fixed-frequency models). With gate = reoccurRatio ·
// obs.Distance, a match at or beyond the gate is declined, one in
// [gate/2, gate) is fused without touching the short model, and one below
// gate/2 also becomes the short model, bit for bit.
func TestKnowledgeReuseInferDistanceBands(t *testing.T) {
	const reoccurRatio, obsDistance = 0.5, 4.0 // gate = 2

	// The preserved model: trained away from the ensemble's initial weights,
	// so "short model untouched" and "short model adopted" differ.
	factory, err := model.FactoryFor("mlp", model.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	preserved, err := factory(reuseDim, reuseClasses)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		b, _ := reuseBatch(rng)
		if _, err := preserved.Fit(b.X, b.Y); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := preserved.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name          string
		dist          float64 // distance of obs.YBar from the preserved distribution
		reuse, adopts bool
	}{
		{"beyond the gate", 3, false, false},
		{"at the gate", 2, false, false},
		{"between half the gate and it", 1.5, true, false},
		{"at half the gate", 1, true, false},
		{"below half the gate", 0.5, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := reuseEnsemble(t, []int{1, 2}, func(m model.Model) model.Model { return m })
			trainRng := rand.New(rand.NewSource(3))
			for i := 0; i < 2; i++ {
				b, obs := reuseBatch(trainRng)
				step(t, e, b, obs, nil)
			}
			store, err := knowledge.NewStore(4, "")
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Preserve(linalg.Vector{0, 0}, snap, "long", 1); err != nil {
				t.Fatal(err)
			}
			scratch, err := factory(reuseDim, reuseClasses)
			if err != nil {
				t.Fatal(err)
			}
			k := NewKnowledgeReuse(store, scratch, e, 1, 0.5, reoccurRatio)

			shortBefore := flatBits(e.ShortModel())
			if slices.Equal(shortBefore, flatBits(preserved)) {
				t.Fatal("short model already equals the preserved snapshot: the test cannot tell adoption apart")
			}
			b, obs := reuseBatch(rand.New(rand.NewSource(11)))
			obs.YBar = linalg.Vector{tc.dist, 0}
			obs.Distance = obsDistance

			ws := nn.GetWorkspace()
			defer ws.Release()
			ws.Stage(b.X, reuseDim)
			e.BeginBatch(ws)
			defer e.EndBatch()
			tr := &knowledgeTrace{}
			pred, ok, err := k.Infer(context.Background(), b, obs, tr)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.reuse || tr.hit != tc.reuse {
				t.Fatalf("ok = %v, traced hit = %v; want %v", ok, tr.hit, tc.reuse)
			}
			if tr.dist != tc.dist {
				t.Errorf("traced match distance = %v, want %v", tr.dist, tc.dist)
			}
			if tc.reuse {
				// The fusion ran over the restored member plus every
				// granularity, and the restored member is the snapshot.
				if pred.Proba != &k.fused || len(pred.Pred) != len(b.X) {
					t.Fatal("prediction is not the knowledge fusion")
				}
				if len(tr.weights) != 1+len(e.Granularities()) || k.members[0].proba != &k.proba {
					t.Fatalf("fused %d members, want the restored one plus %d granularities",
						len(tr.weights), len(e.Granularities()))
				}
				var want linalg.Tensor
				preserved.Net().ProbaInto(&want, b.X)
				for i := range want.Data {
					if math.Float64bits(k.proba.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("restored member's distribution %d = %v, want the snapshot's %v", i, k.proba.Data[i], want.Data[i])
					}
				}
			}
			short := flatBits(e.ShortModel())
			switch {
			case tc.adopts && !slices.Equal(short, flatBits(preserved)):
				t.Error("short model's parameters differ from the adopted snapshot's")
			case !tc.adopts && !slices.Equal(short, shortBefore):
				t.Error("short model changed without an adoption")
			}
		})
	}
}
