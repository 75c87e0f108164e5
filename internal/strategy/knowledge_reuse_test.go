package strategy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
)

// weightsTrace records the fusion weights.
type weightsTrace struct {
	nopTrace
	weights []float64
}

func (w *weightsTrace) Weights(ws []float64) { w.weights = append([]float64(nil), ws...) }

func flatBits(m model.Model) []uint64 {
	w := m.Net().AppendFlatParams(nil)
	bits := make([]uint64, len(w))
	for i, v := range w {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestKnowledgeReuseRestoreAndAdopt drives knowledge reuse's side of Pattern
// C over a store holding one known snapshot at the origin (paper Sec. IV-D:
// on a reoccurring distribution the nearest preserved model is restored and
// fused with the live fixed-frequency models). The match reports the
// snapshot at its exact distance, the restored model's distributions are the
// snapshot's bit for bit, the ensemble fuses them first with every
// granularity after them and leaves the short model untouched, and an
// adoption makes the short model the snapshot, bit for bit. Which distances
// are reused or adopted is the dispatch table's (core's TestDispatchTable).
func TestKnowledgeReuseRestoreAndAdopt(t *testing.T) {
	const dist = 1.5

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
	scratch, err := factory(reuseDim, reuseClasses)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKnowledgeReuse(store, scratch, 0.5)
	yBar := linalg.Vector{dist, 0}
	if m, err := k.Match(yBar, nil); err != nil || m.Snap != nil || !math.IsInf(m.Dist, 1) {
		t.Fatalf("empty store: match %+v, %v; want no image at +Inf", m, err)
	}
	if err := store.Preserve(linalg.Vector{0, 0}, snap, "long", 1); err != nil {
		t.Fatal(err)
	}

	shortBefore := flatBits(e.ShortModel())
	if slices.Equal(shortBefore, flatBits(preserved)) {
		t.Fatal("short model already equals the preserved snapshot: the test cannot tell adoption apart")
	}
	b, _ := reuseBatch(rand.New(rand.NewSource(11)))
	m, err := k.Match(yBar, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dist != dist || !slices.Equal(m.Snap, snap) {
		t.Fatalf("match at distance %v, want the snapshot at %v", m.Dist, dist)
	}

	end := begin(e, b)
	defer end()
	var bx, want linalg.Tensor
	bx.FromRows(b.X, reuseDim)
	if err := k.Restore(&m, &bx); err != nil {
		t.Fatal(err)
	}
	preserved.Net().ProbaInto(&want, &bx)
	for i := range want.Data {
		if math.Float64bits(m.Proba.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("restored member's distribution %d = %v, want the snapshot's %v", i, m.Proba.Data[i], want.Data[i])
		}
	}
	tr := &weightsTrace{}
	pred, err := e.Infer(yBar, &m, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The fusion ran over the restored member plus every granularity, and
	// the restored member is the snapshot.
	if pred.Proba != &e.fused || len(pred.Pred) != len(b.X) {
		t.Fatal("prediction is not the ensemble's fusion")
	}
	if len(tr.weights) != 1+len(e.Granularities()) || e.members[0].proba != m.Proba {
		t.Fatalf("fused %d members, want the restored one plus %d granularities",
			len(tr.weights), len(e.Granularities()))
	}
	if !slices.Equal(flatBits(e.ShortModel()), shortBefore) {
		t.Fatal("short model changed without an adoption")
	}
	if err := e.AdoptShort(m.Snap, yBar); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(flatBits(e.ShortModel()), flatBits(preserved)) {
		t.Error("short model's parameters differ from the adopted snapshot's")
	}
}
