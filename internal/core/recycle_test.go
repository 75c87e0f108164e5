package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"freewayml/internal/nn"
	"freewayml/internal/strategy"
	"freewayml/internal/stream"
)

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// recycleStream is a drifting stream with window closes: 64-row batches
// whose clusters walk away and jump back.
func recycleStream(n int) []stream.Batch {
	rng := rand.New(rand.NewSource(61))
	bs := make([]stream.Batch, n)
	for s := range bs {
		cx := float64(s%40) * 0.08
		if s%25 > 20 {
			cx += 3
		}
		bs[s] = driftBatch(rng, s, 64, cx, 0, stream.KindNone)
	}
	return bs
}

// answer is what a publication answers on the probe: the labels, and the fused
// distributions' bits, class-major.
type answer struct {
	pred  []int
	proba []float64
}

// probeAnswer reads s on the probe as Infer does, and keeps the distributions
// too.
func probeAnswer(t *testing.T, s *strategy.Snapshot, probe [][]float64) answer {
	ws := nn.GetWorkspace()
	defer ws.Release()
	ws.Stage(probe, s.Dim)
	out, err := s.InferInto(ws)
	if err != nil {
		t.Error(err)
		return answer{}
	}
	return answer{out.Pred, slices.Clone(out.Proba.Data)}
}

// TestReadersMatchSerialReplay is the invariant that lets the training plane
// recycle the parameter copies it publishes: reader goroutines read a fixed
// probe batch — by Infer, and by the count-read-release protocol Infer runs,
// keeping the fused distributions — while the trainer runs Process over a
// drifting stream with window closes, and every answer equals what a serial
// replay of the same stream answers on the probe at the publication the reader
// reports: the labels, and the distributions bit for bit. A copy refilled
// while a read still held it would answer from other weights; under -race, a
// refill that a read's end does not order before is reported as a race. The
// learner read concurrently recycles: it is never asked for a pinned snapshot.
func TestReadersMatchSerialReplay(t *testing.T) {
	batches := recycleStream(120)
	probe := inferRows(rand.New(rand.NewSource(62)), 40)
	ctx := context.Background()

	replay, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]answer{}
	record := func() {
		s := replay.ModelSnapshot()
		want[s.Seq] = probeAnswer(t, s, probe)
	}
	record()
	for _, b := range batches {
		if _, err := replay.Process(ctx, b); err != nil {
			t.Fatal(err)
		}
		record()
	}

	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 2
	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		reads [readers]int
		seqs  [readers]map[uint64]bool
	)
	for r := 0; r < readers; r++ {
		seqs[r] = map[uint64]bool{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				res, err := l.Infer(ctx, probe)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if w := want[res.SnapshotSeq]; !slices.Equal(res.Pred, w.pred) {
					t.Errorf("reader %d: Infer at publication %d answered %v, the serial replay %v", r, res.SnapshotSeq, res.Pred, w.pred)
					return
				}
				s := l.readSnapshot()
				got := probeAnswer(t, s, probe)
				s.DoneReading()
				if w := want[s.Seq]; !slices.Equal(got.pred, w.pred) || !slices.EqualFunc(got.proba, w.proba, sameFloat) {
					t.Errorf("reader %d: publication %d's distributions are not the serial replay's", r, s.Seq)
					return
				}
				reads[r]++
				seqs[r][res.SnapshotSeq] = true
				runtime.Gosched()
			}
		}(r)
	}
	for _, b := range batches {
		if _, err := l.Process(ctx, b); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	for r := range reads {
		t.Logf("reader %d: %d reads over %d publications", r, reads[r], len(seqs[r]))
		if len(seqs[r]) < 2 {
			t.Errorf("reader %d read %d publications: it never overlapped the trainer", r, len(seqs[r]))
		}
	}
}

// TestHeldSnapshotsKeepTheirAnswers: a read in flight across publications,
// and a snapshot handed out by ModelSnapshot, keep answering as they did when
// taken while the learner trains on, window closes included — the copies they
// hold are not refilled — and once the read ends, training goes on recycling.
func TestHeldSnapshotsKeepTheirAnswers(t *testing.T) {
	batches := recycleStream(60)
	probe := inferRows(rand.New(rand.NewSource(63)), 24)
	ctx := context.Background()
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:10] {
		if _, err := l.Process(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	read := l.readSnapshot()
	pinned := l.ModelSnapshot()
	if read != pinned {
		t.Fatal("two reads between publications took different snapshots")
	}
	want := probeAnswer(t, read, probe)
	for k, b := range batches[10:] {
		if _, err := l.Process(ctx, b); err != nil {
			t.Fatal(err)
		}
		if k == 20 {
			read.DoneReading() // the pin alone holds it from here on
		}
		if got := probeAnswer(t, pinned, probe); !slices.Equal(got.pred, want.pred) || !slices.EqualFunc(got.proba, want.proba, sameFloat) {
			t.Fatalf("batch %d: the held snapshot answers other distributions than when it was taken", k)
		}
	}
}
