package strategy

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/shift"
	"freewayml/internal/window"
)

// snapCounted counts a model's Snapshot calls.
type snapCounted struct {
	model.Model
	snaps int
}

func (m *snapCounted) Snapshot() ([]byte, error) {
	m.snaps++
	return m.Model.Snapshot()
}

// closeSpy runs before at the long model's first update of a window close.
type closeSpy struct {
	model.Model
	before func()
}

func (m *closeSpy) FitTensor(x *linalg.Tensor, y []int) (float64, error) {
	if m.before != nil {
		m.before()
		m.before = nil
	}
	return m.Model.FitTensor(x, y)
}

// TestWindowCloseBetaPolicy drives one window close through an Ensemble whose
// preserver is KnowledgeReuse, and checks the β policy of Sec. IV-D1: at a
// window disorder ≥ β the store gains the long model alone, and the short
// model is never even serialized; below β it gains the long model (at the
// window's distribution) and the short model (at the closing batch's), whose
// bytes are those of a snapshot taken as the close began, before the long
// model trained. The store gains nothing until the close lands, in the Train
// call after the one whose batch filled the window; that call trains the
// short model first, so a snapshot taken as the close lands would differ.
// Each disorder is counted by hand, as in Eq. 11: the ranks of the three
// stored batches by distance to the fourth, read newest-first.
func TestWindowCloseBetaPolicy(t *testing.T) {
	const beta = 1.0 / 3
	cases := []struct {
		name      string
		centroids []float64 // ȳ of the four batches that fill the window
		want      []string  // sources the store gains, in order
	}{
		// d = 0.5, 4.5, 9.5: newest-first ranks [2 1 0], 3 of 3 inversions.
		{"disorder > beta", []float64{0, 5, 10, 0.5}, []string{"long"}},
		// d = 4, 6, 3: newest-first ranks [0 2 1], 1 of 3 inversions.
		{"disorder = beta", []float64{0, 10, 1, 4}, []string{"long"}},
		// A directional drift, d = 3, 2, 1: newest-first ranks [0 1 2].
		{"disorder < beta", []float64{0, 1, 2, 3}, []string{"long", "short"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			factory, err := model.FactoryFor("mlp", model.DefaultHyper())
			if err != nil {
				t.Fatal(err)
			}
			build := func() model.Model {
				m, err := factory(reuseDim, reuseClasses)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			wcfg := window.DefaultConfig()
			wcfg.MaxBatches = len(c.centroids)
			asw, err := window.New(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			short := &snapCounted{Model: build()}
			var shortAtClose []byte
			long := &closeSpy{Model: build(), before: func() {
				snap, err := short.Model.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				shortAtClose = snap
			}}
			store, err := knowledge.NewStore(20, "")
			if err != nil {
				t.Fatal(err)
			}
			e := NewEnsemble(EnsembleConfig{Sigma: 1, LongEpochs: 1, LongChunk: 64},
				[]*Granularity{NewGranularity(short, 1, nil)}, long, nil, asw, EnsembleDeps{
					OnRecovery:    func(RecoveryEvent) {},
					BatchNum:      func() int { return 0 },
					ReplaceRadius: func() float64 { return 0 },
					Preserver:     NewKnowledgeReuse(store, build(), beta),
				})

			rng := rand.New(rand.NewSource(33))
			for i, cen := range c.centroids {
				if store.Len() != 0 {
					t.Fatalf("batch %d: the store gained an entry before the window closed", i)
				}
				b, _ := reuseBatch(rng)
				obs := shift.Observation{Pattern: shift.PatternA, YBar: linalg.Vector{cen}, Batch: i}
				end := begin(e, b)
				err := e.Train(context.Background(), b.Y, obs, nil)
				end()
				if err != nil {
					t.Fatal(err)
				}
			}
			if e.WindowLen() != 0 {
				t.Fatalf("window holds %d batches after its close", e.WindowLen())
			}
			// The close lands in the next Train, after that call has trained
			// the short model on its own batch.
			if store.Len() != 0 {
				t.Fatalf("the store gained %d entries before the close landed", store.Len())
			}
			b, _ := reuseBatch(rng)
			obs := shift.Observation{Pattern: shift.PatternA, YBar: linalg.Vector{-7}, Batch: len(c.centroids)}
			end := begin(e, b)
			err = e.Train(context.Background(), b.Y, obs, nil)
			end()
			if err != nil {
				t.Fatal(err)
			}
			entries, err := store.Export()
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, en := range entries {
				got = append(got, en.Source)
			}
			if len(got) != len(c.want) {
				t.Fatalf("store gained %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("store gained %v, want %v", got, c.want)
				}
			}
			if shortAtClose == nil {
				t.Fatal("the long model never trained at the close")
			}
			if len(entries) == 1 && short.snaps != 0 {
				t.Errorf("the short model was serialized %d times for a policy that keeps only the long one", short.snaps)
			}
			if len(entries) == 2 {
				last := c.centroids[len(c.centroids)-1]
				if d := entries[1].Distribution; len(d) != 1 || d[0] != last {
					t.Errorf("short entry stored at %v, want the closing batch's ȳ [%v]", d, last)
				}
				if !bytes.Equal(entries[1].Snapshot, shortAtClose) {
					t.Error("the stored short snapshot differs from the short model's as the close began")
				}
			}
		})
	}
}
