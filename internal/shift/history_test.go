package shift

import (
	"fmt"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
)

func TestObservationCarriesHistoryMean(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	det, _ := NewDetector(smallConfig())
	driveWarmup(t, det, rng, linalg.Vector{0, 0, 0}, 0.3)
	obs, err := det.Observe(cloud(rng, 64, linalg.Vector{0, 0, 0}, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if obs.HistoryMean <= 0 {
		t.Errorf("HistoryMean = %v, want > 0 after warm history", obs.HistoryMean)
	}
	// A jump's distance must dwarf the history mean.
	jump, err := det.Observe(cloud(rng, 64, linalg.Vector{50, 50, 0}, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if jump.Distance < 5*jump.HistoryMean {
		t.Errorf("jump distance %v not >> history mean %v", jump.Distance, jump.HistoryMean)
	}
}

// TestObserveMeanIsObserve: a detector handed each batch's slab and its mean
// (linalg.Tensor.MeanRowsInto, as the learner hands them) reaches the verdicts
// of one that averages the rows itself, bit for bit, through warm-up, drift
// and a jump back — although every batch is staged in one slab, overwritten by
// the next, as the learner's workspaces are: the warm-up keeps a copy. A mean
// of the wrong width is refused.
func TestObserveMeanIsObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rows, slab := newDetector(t), newDetector(t)
	var centers []linalg.Vector
	for i := 0; i < 40; i++ {
		centers = append(centers, linalg.Vector{float64(i / 8 * 7), float64(i%3) * 0.2, 0})
	}
	centers = append(centers, linalg.Vector{0, 0, 0})
	x := new(linalg.Tensor)
	for k, c := range centers {
		pts := cloud(rng, 16+k%3, c, 0.4)
		linalg.EnsureTensor(x, len(pts), len(c))
		for i, p := range pts {
			copy(x.Row(i), p)
		}
		mean := linalg.NewVector(len(c))
		x.MeanRowsInto(mean)
		want, err := rows.Observe(pts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := slab.ObserveMean(x, mean)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("batch %d: ObserveMean %#v, Observe %#v", k, got, want)
		}
	}
	if _, err := slab.ObserveMean(linalg.NewTensor(4, 3), linalg.NewVector(2)); err == nil {
		t.Error("a 2-wide mean of 3-wide rows was accepted")
	}
}

// newDetector returns a detector of smallConfig.
func newDetector(t *testing.T) *Detector {
	t.Helper()
	det, err := NewDetector(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return det
}
