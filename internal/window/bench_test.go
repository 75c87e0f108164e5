package window

import (
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
)

func BenchmarkASWPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	cfg.MaxBatches = 1 << 30 // never full: measure steady-state decay cost
	cfg.MaxItems = 1 << 30
	cfg.MinWeight = 0.3 // bounded population via eviction
	w, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := make([][]float64, 256)
	y := make([]int, 256)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}
		if _, err := w.Push(x, y, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkASWTake is BenchmarkASWPush the way the learner feeds the window:
// each batch staged in the tensor the previous Take handed back.
func BenchmarkASWTake(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	cfg.MaxBatches = 1 << 30
	cfg.MaxItems = 1 << 30
	cfg.MinWeight = 0.3
	w, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := linalg.NewTensor(256, 2)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	y := make([]int, 256)
	var staged *linalg.Tensor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		staged = linalg.EnsureTensor(staged, src.Rows, src.Cols)
		copy(staged.Data, src.Data)
		c := linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}
		if staged, _, err = w.Take(staged, y, c); err != nil {
			b.Fatal(err)
		}
	}
}
