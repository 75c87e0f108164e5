package session

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"freewayml/internal/core"
	"freewayml/internal/stream"
)

// testCfg returns a learner config tuned for small, fast test streams.
func testCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Shift.WarmupPoints = 64
	cfg.Shift.HistoryK = 10
	cfg.Shift.MinSeverityHistory = 4
	cfg.Shift.RecentExclusion = 3
	cfg.Window.MaxBatches = 4
	cfg.Window.MaxItems = 1 << 20
	cfg.Hyper.Hidden = 8
	return cfg
}

func testManager(t *testing.T, mut func(*Config)) *Manager {
	t.Helper()
	cfg := Config{Learner: testCfg(), Dim: 3, Classes: 2}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Error(err)
		}
	})
	return m
}

// batchXY draws a labeled batch of two separable classes centered at cx.
func batchXY(rng *rand.Rand, n int, cx float64) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := rng.Intn(2)
		x[i] = []float64{cx + float64(c)*2 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3, 0}
		y[i] = c
	}
	return x, y
}

func feed(t *testing.T, m *Manager, id string, rng *rand.Rand, batches int) {
	t.Helper()
	for i := 0; i < batches; i++ {
		x, y := batchXY(rng, 32, 0)
		if _, err := m.ProcessBatch(context.Background(), id, stream.Batch{X: x, Y: y}); err != nil {
			t.Fatalf("stream %s batch %d: %v", id, i, err)
		}
	}
}

func TestCreateOnFirstUseAndIsolation(t *testing.T) {
	m := testManager(t, nil)
	rng := rand.New(rand.NewSource(1))
	feed(t, m, "a", rng, 8)
	feed(t, m, "b", rng, 3)

	if got := m.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("List = %v", got)
	}
	sa, _ := m.Get("a")
	sb, _ := m.Get("b")
	if sa.Snapshot().Batches != 8 || sb.Snapshot().Batches != 3 {
		t.Errorf("batches = %d/%d, want 8/3 (streams must not share state)",
			sa.Snapshot().Batches, sb.Snapshot().Batches)
	}
	agg := m.Aggregate()
	if agg.Active != 2 || agg.Created != 2 {
		t.Errorf("aggregate = %+v", agg)
	}
}

func TestBadStreamIDs(t *testing.T) {
	m := testManager(t, nil)
	for _, id := range []string{"", ".", "-x", "a b", "a/b", "../etc", "x\n", string(make([]byte, 70))} {
		if _, err := m.Ensure(id); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
	for _, id := range []string{"a", "A-1", "orders.us_east", "x0123456789"} {
		if _, err := m.Ensure(id); err != nil {
			t.Errorf("id %q rejected: %v", id, err)
		}
	}
}

func TestTTLEvictionCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, func(c *Config) {
		c.TTL = 25 * time.Millisecond
		c.CheckpointDir = dir
	})
	rng := rand.New(rand.NewSource(2))
	feed(t, m, "s1", rng, 10)
	before, _ := m.Get("s1")
	want := before.Snapshot()

	time.Sleep(40 * time.Millisecond)
	// The background sweeper may already have fired; SweepOnce makes the
	// eviction deterministic either way.
	m.SweepOnce()
	if _, ok := m.Get("s1"); ok {
		t.Fatal("s1 still resident after TTL sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, "s1.ckpt")); err != nil {
		t.Fatalf("no checkpoint on evict: %v", err)
	}

	// The id reappears: the session is rehydrated from its checkpoint with
	// its prequential metrics and knowledge store intact.
	after, err := m.Ensure("s1")
	if err != nil {
		t.Fatal(err)
	}
	got := after.Snapshot()
	if !got.Restored {
		t.Error("recreated session not marked restored")
	}
	if got.Batches != want.Batches || got.Samples != want.Samples {
		t.Errorf("restored metrics = %d batches / %d samples, want %d / %d",
			got.Batches, got.Samples, want.Batches, want.Samples)
	}
	if got.GAcc != want.GAcc || got.SI != want.SI {
		t.Errorf("restored GAcc/SI = %v/%v, want %v/%v", got.GAcc, got.SI, want.GAcc, want.SI)
	}
	if got.KnowledgeEntries != want.KnowledgeEntries {
		t.Errorf("restored knowledge entries = %d, want %d", got.KnowledgeEntries, want.KnowledgeEntries)
	}
	// The restored session keeps serving.
	feed(t, m, "s1", rng, 1)
	agg := m.Aggregate()
	if agg.EvictedTTL < 1 || agg.Restored < 1 || agg.CheckpointSaves < 1 {
		t.Errorf("aggregate = %+v", agg)
	}
}

// TestRestoredSeqCountsUnlabelledBatches: a stream's sequence counts every
// batch its learner completed, unlabelled ones included, and a stream restored
// from its checkpoint continues it: 3 labelled and 2 unlabelled batches leave
// Seq at 5 before an eviction and after the restore, while Batches counts the
// 3 labelled ones. The periodic checkpoint's cadence reads the same count.
func TestRestoredSeqCountsUnlabelledBatches(t *testing.T) {
	dir := t.TempDir()
	m := testManager(t, func(c *Config) { c.CheckpointDir = dir })
	rng := rand.New(rand.NewSource(5))
	feed(t, m, "s1", rng, 3)
	for i := 0; i < 2; i++ {
		x, _ := batchXY(rng, 32, 0)
		if _, err := m.ProcessBatch(context.Background(), "s1", stream.Batch{X: x}); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := m.Get("s1")
	before := s.Snapshot()
	if before.Seq != 5 || before.Batches != 3 {
		t.Fatalf("before eviction: seq %d, batches %d; want 5, 3", before.Seq, before.Batches)
	}
	if ok, err := m.Evict("s1"); !ok || err != nil {
		t.Fatalf("Evict = %v, %v", ok, err)
	}
	s, err := m.Ensure("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot(); !got.Restored || got.Seq != 5 || got.Batches != 3 {
		t.Errorf("after restore: restored %v, seq %d, batches %d; want true, 5, 3", got.Restored, got.Seq, got.Batches)
	}
}

func TestLRUSpillAtMaxSessions(t *testing.T) {
	m := testManager(t, func(c *Config) { c.MaxSessions = 3 })
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5; i++ {
		feed(t, m, fmt.Sprintf("s%d", i), rng, 1)
	}
	if n := m.Len(); n != 3 {
		t.Fatalf("resident sessions = %d, want 3", n)
	}
	// s0 and s1 were least recently used.
	for _, gone := range []string{"s0", "s1"} {
		if _, ok := m.Get(gone); ok {
			t.Errorf("%s survived the LRU spill", gone)
		}
	}
	if agg := m.Aggregate(); agg.EvictedLRU != 2 {
		t.Errorf("evicted_lru = %d, want 2", agg.EvictedLRU)
	}
}

func TestManagerCloseIdempotent(t *testing.T) {
	m, err := NewManager(Config{Learner: testCfg(), Dim: 3, Classes: 2, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x, y := batchXY(rng, 16, 0)
	if _, err := m.ProcessBatch(context.Background(), "s", stream.Batch{X: x, Y: y}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if _, err := m.ProcessBatch(context.Background(), "s", stream.Batch{X: x, Y: y}); err == nil {
		t.Error("Process after Close succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Learner: testCfg(), Dim: 3, Classes: 2}
	for name, mut := range map[string]func(*Config){
		"negative max":   func(c *Config) { c.MaxSessions = -1 },
		"negative ttl":   func(c *Config) { c.TTL = -time.Second },
		"negative every": func(c *Config) { c.CheckpointEvery = -1 },
		"bad learner":    func(c *Config) { c.Learner.ModelNum = 1 },
	} {
		cfg := base
		mut(&cfg)
		if _, err := NewManager(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestConcurrentSessions hammers the manager from many goroutines across
// more stream ids than the resident bound, with TTL sweeps and explicit
// evictions racing in-flight Process calls, with per-stream checkpoints.
// Run with -race this is the session layer's memory-safety proof.
func TestConcurrentSessions(t *testing.T) {
	m := testManager(t, func(c *Config) {
		c.MaxSessions = 8
		c.TTL = 20 * time.Millisecond
		c.CheckpointDir = t.TempDir()
	})
	const workers = 8
	const streams = 12
	const iters = 12

	var workersWg, evictorWg sync.WaitGroup
	stop := make(chan struct{})
	evictorWg.Add(1)
	go func() { // eviction racing in-flight Process
		defer evictorWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.SweepOnce()
			for i := 0; i < streams; i += 3 {
				if _, err := m.Evict(fmt.Sprintf("s%d", i)); err != nil {
					t.Errorf("evict: %v", err)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for w := 0; w < workers; w++ {
		workersWg.Add(1)
		go func(w int) {
			defer workersWg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("s%d", rng.Intn(streams))
				x, y := batchXY(rng, 16, 0)
				if _, err := m.ProcessBatch(context.Background(), id, stream.Batch{X: x, Y: y}); err != nil {
					t.Errorf("worker %d stream %s: %v", w, id, err)
					return
				}
			}
		}(w)
	}
	workersWg.Wait()
	close(stop)
	evictorWg.Wait()

	if n := m.Len(); n > 8 {
		t.Errorf("resident sessions = %d, exceeds MaxSessions", n)
	}
	agg := m.Aggregate()
	if agg.Created < int64(streams) {
		t.Errorf("created = %d, want >= %d (every id used at least once)", agg.Created, streams)
	}
}
