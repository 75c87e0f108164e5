package core

import (
	"context"
	"runtime"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/stream"
)

// warmNSLKDD returns a default-config learner on a learn_drift-shaped stream
// (NSL-KDD, batch 256) that has processed its first 48 batches, the batches,
// and a function that processes the next one.
func warmNSLKDD(t *testing.T) (*Learner, []stream.Batch, func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts depend on sync.Pool, which drops Puts under the race detector")
	}
	src, err := datasets.Build("NSL-KDD", 256, 1002)
	if err != nil {
		t.Fatal(err)
	}
	batches := stream.Collect(src, 0)
	l, err := NewLearner(DefaultConfig(), src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	k := 0
	next := func() {
		if _, err := l.Process(context.Background(), batches[k%len(batches)]); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for k < 48 {
		next()
	}
	return l, batches, next
}

// TestWarmProcessAllocs guards the allocation count of a warm Process call,
// averaged over 64 consecutive batches so window closes are included. Commit
// 47c30b5 measured 158 per call: the watchdog gob-encoded the model after
// every update and the knowledge/fusion paths evaluated their kernels twice.
// 0bf8ed4 measured 109: every publication deep-cloned the short model and the
// members' probabilities were fresh slabs. This tree measures 45; the bound
// is that plus a tenth.
func TestWarmProcessAllocs(t *testing.T) {
	_, _, next := warmNSLKDD(t)
	if allocs := testing.AllocsPerRun(64, next); allocs > 50 {
		t.Errorf("a warm Process allocates %.0f times per call, want at most 50 (0bf8ed4: 109)", allocs)
	}
}

// TestWarmInferAllocs: a warm Infer allocates what it returns — the labels,
// the fused slab, its row headers and the weights — plus the batch mean and
// its projection, and nothing else: every byte of forward scratch comes from
// the pooled workspace.
func TestWarmInferAllocs(t *testing.T) {
	l, batches, _ := warmNSLKDD(t)
	x := batches[50].X
	infer := func() {
		if _, err := l.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	infer()
	if allocs := testing.AllocsPerRun(100, infer); allocs > 6 {
		t.Errorf("a warm Infer allocates %.0f times per call, want at most 6", allocs)
	}
}

// TestWindowCloseAllocs pins the garbage of the window close: the warm Process
// calls whose batch closes the window, each counted on its own, over eight
// closes. The close gathers the window into the ensemble's reused slab, trains
// on row views of it, and serializes the short model only when the β policy
// keeps it. Before that change a closing Process allocated 111 times on
// average (the window's row headers, a Scale per stored centroid, the entries'
// array after every close, the short model's eager gob snapshot); this tree
// measures 89, and the bound is that plus a tenth.
func TestWindowCloseAllocs(t *testing.T) {
	l, _, next := warmNSLKDD(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var closes, allocs uint64
	for i := 0; closes < 8 && i < 1000; i++ {
		open := l.ens.WindowLen()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		next()
		runtime.ReadMemStats(&ms)
		if open > 0 && l.ens.WindowLen() == 0 {
			closes++
			allocs += ms.Mallocs - before
		}
	}
	if closes < 8 {
		t.Fatalf("only %d window closes in 1000 batches", closes)
	}
	t.Logf("a closing Process allocates %.1f times", float64(allocs)/float64(closes))
	if perClose := float64(allocs) / float64(closes); perClose > 98 {
		t.Errorf("a warm Process that closes the window allocates %.1f times, want at most 98 (before the slab close: 111)", perClose)
	}
}
