package parallel

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"freewayml/internal/linalg"
)

// TestGroupAndParallelGemmRace drives a learner group (its own goroutine
// fan-out per batch) while other goroutines hammer GEMMs big enough to cross
// the kernels' parallel cutoff, so both layers of concurrency overlap. Run
// under -race via `make race` / `make check`, it pins down that the
// row-partitioned kernels share no mutable state with the group machinery.
func TestGroupAndParallelGemmRace(t *testing.T) {
	// The kernels fan out only when GOMAXPROCS > 1; force that even on
	// single-core CI boxes so the parallel path actually runs.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	g, err := NewGroup(groupConfig(), 3, 2, 3, Sharded)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const dim = 128 // 128³ = 2 M mul-adds per GEMM, above the parallel cutoff (1 M)
	a := linalg.NewTensor(dim, dim)
	b := linalg.NewTensor(dim, dim)
	rng := rand.New(rand.NewSource(11))
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		b.Data[i] = rng.NormFloat64()
	}
	want := linalg.NewTensor(dim, dim)
	linalg.RefGemm(want, a, b)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := linalg.NewTensor(dim, dim)
			for iter := 0; iter < 8; iter++ {
				linalg.Gemm(c, a, b)
			}
			for i := range want.Data {
				if c.Data[i] != want.Data[i] {
					t.Errorf("worker %d: parallel GEMM diverged at %d", w, i)
					return
				}
			}
		}(w)
	}

	streamRng := rand.New(rand.NewSource(12))
	for s := 0; s < 10; s++ {
		if _, err := g.Process(context.Background(), twoClassBatch(streamRng, s, 64)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
