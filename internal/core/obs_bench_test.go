package core

import (
	"context"
	"math/rand"
	"testing"

	"freewayml/internal/obs"
	"freewayml/internal/stream"
)

// benchLearner drives the full pipeline over a pre-generated drifting
// stream; the instrumented variant measures the observability layer's
// overhead (the acceptance gate is ≤3% over uninstrumented). Both first
// process twice the trace's capacity, so the instrumented one is timed at a
// full trace, the steady state of a served stream.
func benchLearner(b *testing.B, instrument bool) {
	const traceCap = 512
	cfg := testConfig()
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if instrument {
		l.SetObserver(NewObserver(obs.NewRegistry(), traceCap))
	}
	rng := rand.New(rand.NewSource(7))
	batches := make([]stream.Batch, 64)
	for i := range batches {
		// A slow wander keeps the detector past warmup and the window active
		// without triggering constant severe shifts.
		batches[i] = driftBatch(rng, i, 64, float64(i%8)*0.5, 0, stream.KindNone)
	}
	process := func(i int) {
		if _, err := l.Process(context.Background(), batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*traceCap; i++ {
		process(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process(i)
	}
}

func BenchmarkLearnerUninstrumented(b *testing.B) { benchLearner(b, false) }
func BenchmarkLearnerInstrumented(b *testing.B)   { benchLearner(b, true) }
