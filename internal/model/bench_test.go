package model

import (
	"math/rand"
	"testing"
)

// benchFamily measures one prequential step (predict + fit) per family on a
// 256-sample, 10-feature, 3-class batch.
func benchFamily(b *testing.B, family string) {
	b.Helper()
	f, err := FactoryFor(family, DefaultHyper())
	if err != nil {
		b.Fatal(err)
	}
	m, err := f(10, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x, y := separableBatch(rng, 256, 10, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
		if _, err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamingLRStep(b *testing.B)  { benchFamily(b, "lr") }
func BenchmarkStreamingMLPStep(b *testing.B) { benchFamily(b, "mlp") }

func BenchmarkSnapshotMLP(b *testing.B) {
	f, _ := FactoryFor("mlp", DefaultHyper())
	m, err := f(10, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
