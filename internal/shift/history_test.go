package shift

import (
	"fmt"
	"math"
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

// oldNearest is nearestHistory as it was before the ring and the squared
// filter: every eligible centroid rooted, oldest first, strict <.
func oldNearest(y linalg.Vector, hist []centroid, exclusion int) (float64, int) {
	best, bestIdx := math.Inf(1), -1
	for i := 0; i < len(hist)-exclusion; i++ {
		if dist := y.Distance(hist[i].y); dist < best {
			best, bestIdx = dist, hist[i].batch
		}
	}
	return best, bestIdx
}

func sameVector(a, b linalg.Vector) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestNearestHistoryMatchesRootedLoop holds the ring and its squared-distance
// filter to the loop that rooted every distance over an append-and-trim
// history, on histories that wrap many times, at several exclusions: the
// same distance bits and the same batch — over exact ties (the first wins),
// two squares that round to one root (1 and 1+2⁻⁵², both rooting to 1, in
// either order), NaN and ±Inf coordinates in a centroid or in the query, and
// squares that overflow to +Inf. The ring reads back oldest first as the
// trimmed history does, which is the order State exports.
func TestNearestHistoryMatchesRootedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tiny := math.Ldexp(1, -26) // (1, 2⁻²⁶) is 1+2⁻⁵² from the origin, squared
	special := []linalg.Vector{
		{1, 0, 0}, {1, tiny, 0}, {0, 1, tiny}, {0, 1, 0}, {-1, 0, 0},
		{math.NaN(), 0, 0}, {math.Inf(1), 0, 0}, {0, math.Inf(-1), 0},
		{1e200, 0, 0}, {0, 0, 1e-200}, {0, 0, 0},
	}
	queries := append([]linalg.Vector{{0, 0, 0}, {math.NaN(), 0, 0}, {math.Inf(1), 0, 0}, {0.5, 0.5, 0}}, special...)
	for _, history := range []int{1, 2, 7, 16} {
		for _, exclusion := range []int{0, 3, 20} {
			cfg := smallConfig()
			cfg.CentroidHistory, cfg.RecentExclusion = history, exclusion
			d, err := NewDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ref []centroid
			for k := 0; k < 60; k++ {
				var y linalg.Vector
				if k%3 == 0 {
					y = special[rng.Intn(len(special))].Clone()
				} else {
					// Coordinates on a coarse grid: many exact ties.
					y = linalg.Vector{float64(rng.Intn(3) - 1), float64(rng.Intn(3) - 1), float64(rng.Intn(2))}
				}
				d.pushCentroid(y)
				ref = append(ref, centroid{y: y.Clone(), batch: d.batch})
				if len(ref) > history {
					ref = ref[1:]
				}
				d.batch++
				if len(d.history()) != len(ref) {
					t.Fatalf("history %d, push %d: %d centroids retained, want %d", history, k, len(d.history()), len(ref))
				}
				for i, c := range d.history() {
					if c.batch != ref[i].batch || !sameVector(c.y, ref[i].y) {
						t.Fatalf("history %d, push %d: centroid %d, oldest first, is batch %d, want %d", history, k, i, c.batch, ref[i].batch)
					}
				}
				for _, q := range queries {
					gotD, gotI := d.nearestHistory(q)
					wantD, wantI := oldNearest(q, ref, exclusion)
					if math.Float64bits(gotD) != math.Float64bits(wantD) || gotI != wantI {
						t.Fatalf("history %d, exclusion %d, push %d, query %v: (%v, %d), rooted loop (%v, %d)",
							history, exclusion, k, q, gotD, gotI, wantD, wantI)
					}
				}
			}
		}
	}
	// The two squares that round to one root do round to one root.
	if math.Sqrt(1+math.Ldexp(1, -52)) != 1 {
		t.Fatal("sqrt(1+2⁻⁵²) is not 1: the rounding case above tests nothing")
	}
}
