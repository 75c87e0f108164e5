package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"freewayml/internal/linalg"
)

// Property: after any sequence of pushes, every surviving weight is in
// (0, 1], Items() equals the sum of entry lengths, and entries remain in
// arrival order.
func TestWindowInvariantsProperty(t *testing.T) {
	f := func(seed int64, nPushes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.MaxBatches = 1 << 30
		cfg.MaxItems = 1 << 30
		w, err := New(cfg)
		if err != nil {
			return false
		}
		pushes := int(nPushes%40) + 1
		for i := 0; i < pushes; i++ {
			n := rng.Intn(8) + 1
			x := make([][]float64, n)
			y := make([]int, n)
			for j := range x {
				x[j] = []float64{rng.NormFloat64()}
			}
			c := linalg.Vector{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
			if _, err := w.Push(x, y, c); err != nil {
				return false
			}
		}
		items := 0
		prevSeq := -1
		for _, e := range w.Entries() {
			if e.Weight <= 0 || e.Weight > 1 {
				return false
			}
			if e.Seq <= prevSeq {
				return false
			}
			prevSeq = e.Seq
			items += e.X.Rows
		}
		if items != w.Items() {
			return false
		}
		d := w.Disorder()
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: TrainingSet never gathers more samples than stored and keeps
// every row with its label.
func TestTrainingSetBoundedProperty(t *testing.T) {
	f := func(seed int64, nPushes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		for i := 0; i < int(nPushes%10)+1; i++ {
			n := rng.Intn(16) + 1
			x := make([][]float64, n)
			y := make([]int, n)
			for j := range x {
				x[j] = []float64{float64(i)}
				y[j] = i
			}
			if _, err := w.Push(x, y, linalg.Vector{float64(i), 0}); err != nil {
				return false
			}
		}
		var xs linalg.Tensor
		ys := w.TrainingSet(&xs, nil)
		if xs.Rows != len(ys) || xs.Rows > w.Items() {
			return false
		}
		for r, yv := range ys {
			if xs.At(r, 0) != float64(yv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
