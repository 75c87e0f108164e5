package window

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
)

// sameWindows requires a and b to hold the same batches, bit for bit: rows,
// labels, centroids, weights and sequence numbers, with the same item count,
// disorder and eviction count.
func sameWindows(t *testing.T, step int, a, b *ASW) {
	t.Helper()
	if a.Len() != b.Len() || a.Items() != b.Items() || a.Evictions() != b.Evictions() ||
		math.Float64bits(a.Disorder()) != math.Float64bits(b.Disorder()) {
		t.Fatalf("step %d: %d batches, %d items, %d evictions, disorder %v; the row-fed window %d, %d, %d, %v",
			step, a.Len(), a.Items(), a.Evictions(), a.Disorder(), b.Len(), b.Items(), b.Evictions(), b.Disorder())
	}
	for i, ea := range a.Entries() {
		eb := b.Entries()[i]
		if ea.Seq != eb.Seq || math.Float64bits(ea.Weight) != math.Float64bits(eb.Weight) ||
			ea.X.Rows != eb.X.Rows || ea.X.Cols != eb.X.Cols || !sameBits(ea.Centroid, eb.Centroid) ||
			!sameBits(ea.X.Data, eb.X.Data) || len(ea.Y) != len(eb.Y) {
			t.Fatalf("step %d: entry %d differs from the row-fed window's", step, i)
		}
		for j := range ea.Y {
			if ea.Y[j] != eb.Y[j] {
				t.Fatalf("step %d: entry %d label %d is %d, the row-fed window's %d", step, i, j, ea.Y[j], eb.Y[j])
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTakeHoldsWhatPushHeld feeds one window staged tensors through Take, the
// way the learner hands it a workspace's batch, and a twin the same rows
// through Push. Every spare Take hands back is then written over with NaNs
// and staged into again, as a workspace reusing it would; a spare is never a
// tensor the window still holds. After every push both windows hold the same
// batches bit for bit — rows (signed zeros and NaN payloads included),
// labels, centroids, weights — and agree on fullness, disorder and decay
// evictions, and every close gathers the same training set. The schedule
// includes batches wider in rows than MaxItems, refused batches and a run of
// far-apart centroids that decays batches out.
func TestTakeHoldsWhatPushHeld(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatches, cfg.MaxItems, cfg.MinWeight = 6, 96, 0.6
	a, _ := New(cfg)
	b, _ := New(cfg)
	rng := rand.New(rand.NewSource(9))
	const dim = 3
	var pool []*linalg.Tensor // the tensors the "workspace" stages into
	var slabA, slabB linalg.Tensor
	var yA, yB []int
	closes := 0
	for step := 0; step < 200; step++ {
		n := 1 + rng.Intn(40)
		if step%17 == 0 {
			n = cfg.MaxItems + 5 // over capacity on its own
		}
		x, y := make([][]float64, n), make([]int, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), math.Copysign(0, float64(rng.Intn(2))-0.5), math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(rng.Intn(1<<20)))}
			y[i] = rng.Intn(4)
		}
		spread := 1.0
		if step%29 < 4 {
			spread = 50 // far-apart centroids decay the window's batches out
		}
		c := linalg.Vector{rng.NormFloat64() * spread, rng.NormFloat64()}
		if step%23 == 5 {
			y = y[1:] // refused: a label short
		}

		var staged *linalg.Tensor
		if k := len(pool); k > 0 {
			staged, pool = pool[k-1], pool[:k-1]
		}
		staged = linalg.EnsureTensor(staged, n, dim)
		staged.FromRows(x, dim)
		spare, fullA, errA := a.Take(staged, y, c)
		fullB, errB := b.Push(x, y, c)
		if (errA == nil) != (errB == nil) || fullA != fullB {
			t.Fatalf("step %d: Take → %v, %v; Push → %v, %v", step, fullA, errA, fullB, errB)
		}
		if errA != nil && spare != staged {
			t.Fatalf("step %d: a refused Take kept the batch", step)
		}
		if spare != nil {
			for _, e := range a.Entries() {
				if e.X == spare {
					t.Fatalf("step %d: Take handed back the rows of an entry it holds", step)
				}
			}
			for i := range spare.Data {
				spare.Data[i] = math.NaN()
			}
			pool = append(pool, spare)
		}
		sameWindows(t, step, a, b)
		if fullA {
			closes++
			yA, yB = a.TrainingSet(&slabA, yA), b.TrainingSet(&slabB, yB)
			if !sameBits(slabA.Data, slabB.Data) || len(yA) != len(yB) {
				t.Fatalf("step %d: the close's training sets differ", step)
			}
			a.Reset()
			b.Reset()
		}
	}
	if closes < 10 || a.Evictions() == 0 {
		t.Fatalf("%d closes and %d evictions: the schedule missed a path", closes, a.Evictions())
	}
}
