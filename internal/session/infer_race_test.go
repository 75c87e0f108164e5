package session

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"freewayml/internal/stream"
)

// TestInferConcurrentWithTrainAndEvict races the lock-free read path
// against the write path on the same stream: one goroutine trains, one
// evicts the stream repeatedly, and several goroutines infer throughout.
// Under -race this proves the inference plane shares no unsynchronized
// state with training, and that an eviction mid-read never produces an
// error — the snapshot pointer outlives the session.
func TestInferConcurrentWithTrainAndEvict(t *testing.T) {
	m := testManager(t, func(c *Config) {
		c.CheckpointDir = t.TempDir()
	})
	const id = "raced"
	rng := rand.New(rand.NewSource(42))
	batches := make([][][]float64, 24)
	labels := make([][]int, 24)
	for b := range batches {
		batches[b], labels[b] = batchXY(rng, 16, 0)
	}
	queries := make([][][]float64, 8)
	for q := range queries {
		queries[q], _ = batchXY(rng, 8, 0)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // trainer
		defer wg.Done()
		for b := 0; ; b = (b + 1) % len(batches) {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.ProcessBatch(context.Background(), id, stream.Batch{X: batches[b], Y: labels[b]}); err != nil {
				t.Errorf("train: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // evictor
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Evict(id)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) { // readers
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := m.Infer(context.Background(), id, queries[(r+i)%len(queries)])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if len(res.Pred) != 8 {
					t.Errorf("reader %d: %d predictions", r, len(res.Pred))
					return
				}
			}
		}(r)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestInferIgnoresSessionMutex pins the central lock-order invariant of the
// split: Session.Infer must complete while another goroutine holds
// Session.mu (as Process, checkpointing, and teardown do). If the read path
// ever grows a mu acquisition, this test deadlocks its way to the timeout
// instead of passing.
func TestInferIgnoresSessionMutex(t *testing.T) {
	m := testManager(t, nil)
	sess, err := m.Ensure("pinned")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	x, y := batchXY(rng, 16, 0)
	if _, err := m.ProcessBatch(context.Background(), "pinned", stream.Batch{X: x, Y: y}); err != nil {
		t.Fatal(err)
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		q, _ := batchXY(rng, 4, 0)
		_, err := sess.Infer(context.Background(), q)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("infer under held mu: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Infer blocked on Session.mu — the read path must not take it")
	}
}
