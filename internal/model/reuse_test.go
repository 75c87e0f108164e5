package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/nn"
)

func flatBits(t *testing.T, what string, a, b Model) {
	t.Helper()
	wa, wb := a.Net().AppendFlatParams(nil), b.Net().AppendFlatParams(nil)
	if len(wa) != len(wb) {
		t.Fatalf("%s: %d vs %d weights", what, len(wa), len(wb))
	}
	for i := range wa {
		if math.Float64bits(wa[i]) != math.Float64bits(wb[i]) {
			t.Fatalf("%s: weight %d: %v vs %v", what, i, wa[i], wb[i])
		}
	}
}

// TestFitFromMatchesFit drives every network family through the model
// surface the ensemble uses: a frozen forward then FitFrom on one twin, Fit
// on the other. Loss and weights agree bit for bit over consecutive steps —
// which, with momentum on, pins the optimizer state too.
func TestFitFromMatchesFit(t *testing.T) {
	const dim, classes = 12, 5
	for _, family := range []string{"lr", "mlp", "cnn3", "cnn5"} {
		t.Run(family, func(t *testing.T) {
			factory, err := FactoryFor(family, DefaultHyper())
			if err != nil {
				t.Fatal(err)
			}
			plain, _ := factory(dim, classes)
			reuse, _ := factory(dim, classes)
			rng := rand.New(rand.NewSource(21))
			var ws nn.Workspace
			forward := func(x [][]float64) *nn.Forward {
				ws.Reset()
				ws.Stage(x, dim)
				return ws.Forward(reuse.Freeze(nil))
			}
			for step := 0; step < 4; step++ {
				x, y := separableBatch(rng, 33, dim, classes)
				lossPlain, err := plain.Fit(x, y)
				if err != nil {
					t.Fatal(err)
				}
				lossReuse, ok, err := reuse.FitFrom(forward(x), y)
				if err != nil || !ok {
					t.Fatalf("step %d: FitFrom ok=%v err=%v", step, ok, err)
				}
				if math.Float64bits(lossPlain) != math.Float64bits(lossReuse) {
					t.Fatalf("step %d: loss %v vs %v", step, lossPlain, lossReuse)
				}
				flatBits(t, "after update", plain, reuse)
			}
			// A Restore after the freeze leaves the forward of older parameters.
			x, y := separableBatch(rng, 33, dim, classes)
			fw := forward(x)
			snap, err := plain.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := reuse.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := reuse.FitFrom(fw, y); ok {
				t.Fatal("FitFrom ran across a Restore")
			}
		})
	}
}

// TestAppendSnapshotMatchesSnapshot: an image appended into a reused buffer
// is Snapshot's, byte for byte, and restoring it does what restoring
// Snapshot's does — weights back, momentum gone.
func TestAppendSnapshotMatchesSnapshot(t *testing.T) {
	const dim, classes = 6, 3
	rng := rand.New(rand.NewSource(22))
	a, _ := NewStreamingMLP(dim, classes, DefaultHyper())
	b, _ := NewStreamingMLP(dim, classes, DefaultHyper())
	step := func() {
		x, y := separableBatch(rng, 20, dim, classes)
		for _, m := range []Model{a, b} {
			if _, err := m.Fit(x, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	step()
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Repeat([]byte{0xAA}, 4096) // a reused buffer that held something else
	img := b.Net().AppendSnapshot(stale[:0])
	if !bytes.Equal(img, snap) {
		t.Fatal("AppendSnapshot differs from Snapshot")
	}
	step()
	step()
	if err := a.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(img); err != nil {
		t.Fatal(err)
	}
	flatBits(t, "after rollback", a, b)
	step() // momentum was reset on both sides, or the weights part here
	flatBits(t, "one step after rollback", a, b)
}
