package cluster

import (
	"math/rand"
	"testing"
)

func BenchmarkKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, _ := blobs(rng, [][]float64{{0, 0}, {8, 8}, {-8, 8}}, 100, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(slab(x), 3, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCEC(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	expX, expY := blobs(rng, centers, 20, 0.5)
	batch, _ := blobs(rng, centers, 100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CEC(batch, slab(expX), expY, 3, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpBufferAdd adds 256-row slabs to a full buffer of the default
// capacity: the eviction's move down and the one copy of the batch.
func BenchmarkExpBufferAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	buf, err := NewExpBuffer(1024, 0)
	if err != nil {
		b.Fatal(err)
	}
	x, y := blobs(rng, [][]float64{{0, 0, 0, 0}, {4, 4, 4, 4}}, 128, 1)
	s := slab(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.Add(s, y); err != nil {
			b.Fatal(err)
		}
	}
}
