package core

import (
	"context"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/stream"
)

// TestWarmProcessAllocs guards the allocation count of a warm Process call on
// a learn_drift-shaped stream (NSL-KDD, batch 256, default config), averaged
// over 64 consecutive batches so window closes are included. Commit 47c30b5
// measured 158 per call: the watchdog gob-encoded the model after every
// update and the knowledge/fusion paths evaluated their kernels twice. This
// tree measures 109; the bound sits between the two.
func TestWarmProcessAllocs(t *testing.T) {
	src, err := datasets.Build("NSL-KDD", 256, 1002)
	if err != nil {
		t.Fatal(err)
	}
	batches := stream.Collect(src, 0)
	l, err := NewLearner(DefaultConfig(), src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	k := 0
	next := func() {
		if _, err := l.Process(ctx, batches[k%len(batches)]); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for k < 48 {
		next()
	}
	if allocs := testing.AllocsPerRun(64, next); allocs > 125 {
		t.Errorf("a warm Process allocates %.0f times per call, want at most 125 (47c30b5: 158)", allocs)
	}
}
