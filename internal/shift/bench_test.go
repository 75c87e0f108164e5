package shift

import (
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
)

func BenchmarkDetectorObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	cfg.WarmupPoints = 256
	det, err := NewDetector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]linalg.Vector, 8)
	for i := range batches {
		batches[i] = cloud(rng, 256, linalg.Vector{float64(i), 0, 0, 0, 0, 0, 0, 0}, 0.5)
	}
	// Warm up past the PCA fit.
	for i := 0; i < 4; i++ {
		if _, err := det.Observe(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Observe(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveMean times the learner's call, ObserveMean of a 256-row
// batch's slab and mean, past warm-up and with the centroid history full:
// DefaultConfig's 512 centroids, every one but the RecentExclusion newest a
// candidate for d_h.
func BenchmarkObserveMean(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	cfg.WarmupPoints = 256
	det, err := NewDetector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	slabs, means := make([]*linalg.Tensor, 8), make([]linalg.Vector, 8)
	for i := range slabs {
		pts := cloud(rng, 256, linalg.Vector{float64(i), 0, 0, 0, 0, 0, 0, 0}, 0.5)
		slabs[i] = linalg.NewTensor(len(pts), len(pts[0]))
		for r, p := range pts {
			copy(slabs[i].Row(r), p)
		}
		means[i] = linalg.NewVector(slabs[i].Cols)
		slabs[i].MeanRowsInto(means[i])
	}
	observe := func(i int) {
		if _, err := det.ObserveMean(slabs[i%len(slabs)], means[i%len(slabs)]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; len(det.centroids) < cfg.CentroidHistory; i++ {
		observe(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(i)
	}
}
