package core

import (
	"context"
	"runtime"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/obs"
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
// members' probabilities were fresh slabs. 030f688 measured 41: the strategy
// still copied the fused distributions out as rows. cc3fdbc measured 39: the
// shift detector took a fresh batch mean and a fresh copy of its distance
// history every batch; later trees 37. ae41d7a and e663437 measured 13, the
// window taking the staged batch whole. 3e77e71 measured 12: a published
// parameter copy fills storage recycled from one no reader holds any more.
// This tree measures 11: the fusion weights go to the ensemble's scratch, and
// only a trace that keeps them copies them. The bound is that plus a tenth.
func TestWarmProcessAllocs(t *testing.T) {
	_, _, next := warmNSLKDD(t)
	allocs := testing.AllocsPerRun(64, next)
	t.Logf("a warm Process allocates %.2f times per call", allocs)
	if allocs > 12 {
		t.Errorf("a warm Process allocates %.0f times per call, want at most 12 (0bf8ed4: 109)", allocs)
	}
}

// TestWarmInferAllocs: a warm Infer allocates what it returns — the labels —
// plus the projected batch mean (two allocations in the projection), and
// nothing else: every byte of forward scratch, the fused distributions and
// their weights included, comes from the pooled workspace. At 030f688 it also
// copied those distributions out as rows (a slab and its row headers: 6 per
// call); at 3e77e71 it allocated the weights (4 per call).
func TestWarmInferAllocs(t *testing.T) {
	l, batches, _ := warmNSLKDD(t)
	x := batches[50].X
	infer := func() {
		if _, err := l.Infer(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	infer()
	allocs := testing.AllocsPerRun(100, infer)
	t.Logf("a warm Infer allocates %.2f times per call", allocs)
	if allocs > 3 {
		t.Errorf("a warm Infer allocates %.0f times per call, want at most 3 (030f688: 6)", allocs)
	}
}

// TestWarmInferProcessBytes pins the bytes behind those counts: TotalAlloc over
// 64 warm Infer+Process pairs, window closes included, at GOMAXPROCS 1 — the
// learner warmed at it too: a GOMAXPROCS change drops the workspace pool's
// per-P caches, and a workspace regrown inside the count adds about 300 kB.
// At 030f688, where every Infer and every Process also copied the fused
// distributions out as rows × classes, these pairs allocated 5,052,920 bytes;
// cc3fdbc, 2,818,000; ae41d7a, 1,963,000; e663437, 1,948,000; 3e77e71, whose
// published parameter copies fill recycled storage, 1,182,200. This tree,
// whose fusion weights live in the workspace and the ensemble's scratch,
// measures 1,180,100; the bound is that plus a tenth.
func TestWarmInferProcessBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l, batches, next := warmNSLKDD(t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < 64; i++ {
		if _, err := l.Infer(context.Background(), batches[(48+i)%len(batches)].X); err != nil {
			t.Fatal(err)
		}
		next()
	}
	runtime.ReadMemStats(&ms)
	bytes := ms.TotalAlloc - before
	t.Logf("64 warm Infer+Process pairs allocate %d bytes", bytes)
	if bytes > 1_298_000 {
		t.Errorf("64 warm Infer+Process pairs allocate %d bytes, want at most 1,298,000 (030f688: 5,052,920)", bytes)
	}
}

// TestWindowCloseAllocs pins the garbage of the window close: the warm Process
// calls whose batch closes the window, and the calls after them, where the
// close lands, each counted on its own, over eight closes. The close gathers
// the window into the ensemble's reused slab, trains on row views of it, and
// serializes the short model only when the β policy keeps it. Before that
// change a closing Process allocated 111 times on average (the window's row
// headers, a Scale per stored centroid, the entries' array after every close,
// the short model's eager gob snapshot); with the whole close inside it,
// 030f688 measured 89 (1435b93: 84.6). Split across two calls, e663437 measured
// 17.1 for the closing call and 21.8 for the call after it, which lands the
// close: it freezes the long model once more and gives the store its
// snapshots; 3e77e71 measured 15.1 and 19.8. This tree measures 14.1 and 18.8
// (at most 14.6 and 19.2 over 400 runs at -cpu 1,2,4), and each bound is
// that plus a tenth.
func TestWindowCloseAllocs(t *testing.T) {
	l, _, next := warmNSLKDD(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var closes, allocs, landing uint64
	closed := false
	for i := 0; (closes < 8 || closed) && i < 1000; i++ {
		open := l.ens.WindowLen()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		next()
		runtime.ReadMemStats(&ms)
		if closed {
			landing += ms.Mallocs - before
		}
		closed = open > 0 && l.ens.WindowLen() == 0
		if closed {
			closes++
			allocs += ms.Mallocs - before
		}
	}
	if closes < 8 {
		t.Fatalf("only %d window closes in 1000 batches", closes)
	}
	perClose, perLanding := float64(allocs)/float64(closes), float64(landing)/float64(closes)
	t.Logf("a closing Process allocates %.1f times, the Process that lands the close %.1f", perClose, perLanding)
	if perClose > 15.5 {
		t.Errorf("a warm Process that closes the window allocates %.1f times, want at most 15.5 (before the slab close: 111)", perClose)
	}
	if perLanding > 20.7 {
		t.Errorf("a warm Process that lands a window close allocates %.1f times, want at most 20.7", perLanding)
	}
}

// TestObservedProcessAllocs: once warm, an observed Process allocates no more
// than an unobserved one. The batch's record is written into a carrier the
// learner reuses and copied into a trace of plain records whose weights
// arena was sized when the observer was attached. At 8c545f9 an observed
// batch allocated three times more than an unobserved one (13 against 10):
// its collector, its stage list and its weights copy, the ring keeping the
// last two.
func TestObservedProcessAllocs(t *testing.T) {
	const traceCap = 16
	measure := func(observe bool) float64 {
		l, _, next := warmNSLKDD(t)
		if observe {
			l.SetObserver(NewObserver(obs.NewRegistry(), traceCap))
		}
		for i := 0; i < 2*traceCap; i++ { // past a full trace
			next()
		}
		return testing.AllocsPerRun(64, next)
	}
	plain, observed := measure(false), measure(true)
	t.Logf("a warm Process allocates %.2f times per call, %.2f observed", plain, observed)
	if observed > plain {
		t.Errorf("a warm observed Process allocates %.2f times per call, an unobserved one %.2f", observed, plain)
	}
}

// TestMissHeavyCycleAllocs pins the garbage of serve_ingest's request cycle,
// P P P P I on one stream: four Process calls, of which only the first takes
// the hand-off of the Infer before it, then an Infer of the next batch. This
// tree and 8c545f9 measure 46 allocations per cycle, and so does the same
// tree with the fusion weights of Snapshot.InferInto in storage the workspace
// keeps instead of a one-row workspace tensor: that tensor allocates nothing
// once the workspace is warm. The bound is that plus a tenth.
func TestMissHeavyCycleAllocs(t *testing.T) {
	l, batches, next := warmNSLKDD(t)
	k := 48 // the batch next processes
	cycle := func() {
		for j := 0; j < 4; j++ {
			next()
			k++
		}
		if _, err := l.Infer(context.Background(), batches[k%len(batches)].X); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	allocs := testing.AllocsPerRun(64, cycle)
	t.Logf("a warm P P P P I cycle allocates %.2f times", allocs)
	if allocs > 50 {
		t.Errorf("a warm P P P P I cycle allocates %.0f times, want at most 50", allocs)
	}
}
