package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: KMeans assignments index valid clusters, every requested cluster
// count is materialized (when points suffice), and inertia never exceeds the
// single-cluster inertia.
func TestKMeansInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		k := int(kRaw%4) + 1
		if k > n {
			k = n
		}
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		res, err := KMeans(slab(x), k, seed)
		if err != nil {
			return false
		}
		if len(res.Assignment) != n || len(res.Centroids) != k {
			return false
		}
		for _, a := range res.Assignment {
			if a < 0 || a >= k {
				return false
			}
		}
		single, err := KMeans(slab(x), 1, seed)
		if err != nil {
			return false
		}
		return res.Inertia(slab(x)) <= single.Inertia(slab(x))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: CEC predictions are always valid labels and cover the batch.
func TestCECValidLabelsProperty(t *testing.T) {
	f := func(seed int64, classesRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		classes := int(classesRaw%4) + 2
		centers := make([][]float64, classes)
		for c := range centers {
			centers[c] = []float64{float64(c) * 10, 0}
		}
		expX, expY := blobs(rng, centers, 5, 0.5)
		batch, _ := blobs(rng, centers, 20, 0.5)
		pred, err := CEC(batch, slab(expX), expY, classes, seed)
		if err != nil {
			return false
		}
		if len(pred) != len(batch) {
			return false
		}
		for _, p := range pred {
			if p < 0 || p >= classes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
