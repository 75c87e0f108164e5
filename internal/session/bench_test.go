package session

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"freewayml/internal/core"
	"freewayml/internal/datasets"
	"freewayml/internal/stream"
)

// benchCfg is a deliberately small learner so the benchmark weighs the
// session layer — lookups, LRU eviction, checkpoint-on-evict, restore —
// rather than model math.
func benchCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.ModelFamily = "lr"
	cfg.Shift.WarmupPoints = 64
	cfg.Shift.HistoryK = 10
	cfg.Shift.MinSeverityHistory = 4
	cfg.Window.MaxBatches = 4
	cfg.Window.MaxItems = 1 << 20
	return cfg
}

// benchBatches pre-generates a few distinct labeled batches per stream; the
// learner retains labeled rows in its windows, so rows are shared read-only.
func benchBatches(streams, variants, rows, dim int) ([][]struct {
	x [][]float64
	y []int
}, []string) {
	rng := rand.New(rand.NewSource(42))
	batches := make([][]struct {
		x [][]float64
		y []int
	}, streams)
	ids := make([]string, streams)
	for s := range batches {
		ids[s] = fmt.Sprintf("s%02d", s)
		batches[s] = make([]struct {
			x [][]float64
			y []int
		}, variants)
		for v := range batches[s] {
			x := make([][]float64, rows)
			y := make([]int, rows)
			for i := range x {
				c := rng.Intn(2)
				x[i] = make([]float64, dim)
				x[i][0] = float64(c)*2 + rng.NormFloat64()*0.3
				for j := 1; j < dim; j++ {
					x[i][j] = rng.NormFloat64()
				}
				y[i] = c
			}
			batches[s][v] = struct {
				x [][]float64
				y []int
			}{x, y}
		}
	}
	return batches, ids
}

// benchCkptDir prefers a tmpfs mount for churn checkpoints so the measured
// contrast is lock blocking, not the host disk's (highly variable) fsync
// latency. Falls back to the test temp dir off Linux.
func benchCkptDir(b *testing.B) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		d, err := os.MkdirTemp("/dev/shm", "freeway-bench")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(d) })
			return d
		}
	}
	return b.TempDir()
}

// BenchmarkManagerParallelProcess measures cross-stream Process throughput
// for the single-lock baseline (shards=1, the pre-stripe manager) against
// the striped session map (shards=8), at two operating points:
//
//   - resident: every stream fits; ops are lookup + per-session work. This
//     is the fast path the stripes keep contention-free.
//   - churn: a hot set serves traffic while background arrivals of new
//     stream ids continuously overflow the bound, so every arrival pays an
//     LRU eviction (checkpoint-on-evict) and a creation under a shard write
//     lock. With one stripe that write-locked maintenance starves hot-path
//     lookups (Go's RWMutex prefers queued writers); with 8 stripes only
//     the victim's shard stalls. Reported throughput counts hot ops only.
//
// Note the contrast is scheduling/blocking, not CPU parallelism: on a
// multi-core host the stripes additionally let evictions overlap their
// checkpoint I/O, which is where the headline multiplier comes from; a
// single-core host bounds the achievable ratio.
func BenchmarkManagerParallelProcess(b *testing.B) {
	for _, mode := range []string{"resident", "churn"} {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(b *testing.B) {
				benchParallelProcess(b, shards, mode == "churn")
			})
		}
	}
}

func benchParallelProcess(b *testing.B, shards int, churn bool) {
	const (
		hot      = 8 // streams driven by the timed workers
		slack    = 32
		churners = 8
		variants = 4
	)
	cfg := Config{
		Learner:     benchCfg(),
		Dim:         4,
		Classes:     2,
		MaxSessions: hot + slack,
		Shards:      shards,
	}
	if churn {
		cfg.CheckpointDir = benchCkptDir(b)
	}
	m, err := NewManager(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	batches, ids := benchBatches(hot, variants, 8, 4)

	// Background churn: each churner submits a never-before-seen stream id
	// per request — a continuous stream of arrivals, each forcing an LRU
	// eviction (with its checkpoint write) once the bound is reached. Ids
	// are monotonic so there are no coincidental lookup hits and no two
	// goroutines ever race on the same cold id.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	if churn {
		coldBatch, _ := benchBatches(1, 1, 4, 4)
		for c := 0; c < churners; c++ {
			churnWG.Add(1)
			go func(c int) {
				defer churnWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := fmt.Sprintf("cold-%d-%d", c, i)
					// Errors tolerated: under the single-lock baseline a
					// starved arrival can exhaust its eviction retries;
					// that failure mode is part of what the stripes fix.
					_, _ = m.ProcessBatch(context.Background(), id, stream.Batch{X: coldBatch[0][0].x, Y: coldBatch[0][0].y})
				}
			}(c)
		}
	}

	var hotErrs atomic.Int64
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(seq.Add(1)-1) % hot
		for i := 0; pb.Next(); i++ {
			bt := batches[w][i%variants]
			if _, err := m.ProcessBatch(context.Background(), ids[w], stream.Batch{X: bt.x, Y: bt.y}); err != nil {
				hotErrs.Add(1)
			}
		}
	})
	b.StopTimer()
	close(stop)
	churnWG.Wait()
	ok := float64(b.N - int(hotErrs.Load()))
	b.ReportMetric(ok/b.Elapsed().Seconds(), "batches/s")
	b.ReportMetric(float64(hotErrs.Load()), "errors")
}

// BenchmarkResidentStream reports what a resident stream holds in memory: it
// trains 8 NSL-KDD streams with the library's default learner (what
// freeway-serve -model mlp builds) for 2,000 labelled batches of 128 rows
// each, then reports the heap the manager retains, per stream. Two collections
// before each reading empty the sync.Pool caches, which belong to no stream.
// The streams share one pre-drawn batch list, read from offsets of their own;
// the learners copy what they keep, so the list is outside the figure.
func BenchmarkResidentStream(b *testing.B) {
	const streams, batches = 8, 2000
	src, err := datasets.Build("NSL-KDD", 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	data := stream.Collect(src, 0)
	cfg := Config{Learner: core.DefaultConfig(), Dim: src.Dim(), Classes: src.Classes(), MaxSessions: streams}
	ids := make([]string, streams)
	for s := range ids {
		ids[s] = fmt.Sprintf("s%d", s)
	}
	var ms runtime.MemStats
	retained := func() uint64 {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < b.N; i++ {
		base := retained()
		m, err := NewManager(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < batches; k++ {
			for s, id := range ids {
				if _, err := m.ProcessBatch(context.Background(), id, data[(k+s*len(data)/streams)%len(data)]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(retained()-base)/streams, "retained-B/stream")
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
