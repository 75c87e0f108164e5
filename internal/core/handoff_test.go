package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/guard"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/obs"
	"freewayml/internal/stream"
)

// fitCounter counts which way a member's updates went.
type fitCounter struct {
	model.Model
	from, declined, tensor int
}

func (c *fitCounter) FitFrom(fw *nn.Forward, y []int) (float64, bool, error) {
	loss, ok, err := c.Model.FitFrom(fw, y)
	if ok {
		c.from++
	} else {
		c.declined++
	}
	return loss, ok, err
}

func (c *fitCounter) FitTensor(x *linalg.Tensor, y []int) (float64, error) {
	c.tensor++
	return c.Model.FitTensor(x, y)
}

// handoffLearner builds an observed learner for src's shape.
func handoffLearner(t *testing.T, cfg Config, src stream.Source) *Learner {
	t.Helper()
	l, err := NewLearner(cfg, src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	l.SetObserver(NewObserver(obs.NewRegistry(), 0))
	t.Cleanup(func() { l.Close() })
	return l
}

// sameLearners requires the two results and both learners' short and long
// weights to be equal, bit for bit.
func sameLearners(t *testing.T, k int, a, b *Learner, ra, rb Result) {
	t.Helper()
	if len(ra.Pred) != len(rb.Pred) || math.Float64bits(ra.Accuracy) != math.Float64bits(rb.Accuracy) {
		t.Fatalf("batch %d: %d labels at accuracy %v, the twin %d at %v", k, len(ra.Pred), ra.Accuracy, len(rb.Pred), rb.Accuracy)
	}
	for i := range ra.Pred {
		if ra.Pred[i] != rb.Pred[i] {
			t.Fatalf("batch %d: row %d labeled %d, the twin %d", k, i, ra.Pred[i], rb.Pred[i])
		}
	}
	as, al := a.DebugModels()
	bs, bl := b.DebugModels()
	for _, m := range []struct {
		name string
		a, b model.Model
	}{{"short", as, bs}, {"long", al, bl}} {
		wa, wb := m.a.AppendParams(nil), m.b.AppendParams(nil)
		for i := range wa {
			if math.Float64bits(wa[i]) != math.Float64bits(wb[i]) {
				t.Fatalf("batch %d: %s weight %d is %v, the twin's %v", k, m.name, i, wa[i], wb[i])
			}
		}
	}
}

func process(t *testing.T, l *Learner, b stream.Batch) Result {
	t.Helper()
	res, err := l.Process(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func infer(t *testing.T, l *Learner, x [][]float64) {
	t.Helper()
	if _, err := l.Infer(context.Background(), x); err != nil {
		t.Fatal(err)
	}
}

// TestForwardHandoffTwins runs the four learn_drift schedules through two
// learners: one calls Infer and then Process on every batch, as the benchmark
// does, the other Process alone. After every batch both answered the same and
// hold the same short and long weights, bit for bit; the first took the
// Infer's forwards on every Process (DESIGN.md, "One forward per member per
// batch"), and its short model trained from them on every batch but those
// whose knowledge adoption rewrote it after its forward.
func TestForwardHandoffTwins(t *testing.T) {
	adoptions := 0
	for i, name := range []string{"Hyperplane", "Covertype", "NSL-KDD", "Electricity"} {
		src, err := datasets.Build(name, 256, 1000+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		a, b := handoffLearner(t, DefaultConfig(), src), handoffLearner(t, DefaultConfig(), src)
		short := &fitCounter{Model: a.ens.Granularities()[0].Model}
		a.ens.Granularities()[0].Model = short
		batches := stream.Collect(src, 0)
		ready := false
		for k, bt := range batches {
			infer(t, a, bt.X)
			ra, rb := process(t, a, bt), process(t, b, bt)
			sameLearners(t, k, a, b, ra, rb)
			if !ready && ra.Strategy != StrategyWarmup {
				// The Infer read a warm-up snapshot: only the short member
				// ran, so this Process forwards the others itself.
				ready = true
				if a.obs.handoffMiss.Value() != 0 {
					t.Fatalf("%s: the warm-up → ready batch %d missed the hand-off", name, k)
				}
			}
		}
		if hits, misses := a.obs.handoffHit.Value(), a.obs.handoffMiss.Value(); hits != int64(len(batches)) || misses != 0 {
			t.Errorf("%s: Infer then Process hit the hand-off %d times and missed %d, want %d and 0", name, hits, misses, len(batches))
		}
		if hits := b.obs.handoffHit.Value(); hits != 0 {
			t.Errorf("%s: Process alone hit the hand-off %d times", name, hits)
		}
		var body strings.Builder
		if err := a.obs.reg.WritePrometheus(&body); err != nil {
			t.Fatal(err)
		}
		if v := seriesValue(t, body.String(), `freeway_forward_handoff_total{result="hit"}`); v != float64(len(batches)) {
			t.Errorf("%s: the exposition counts %v hits, want %d", name, v, len(batches))
		}
		if ev := a.obs.Trace().Last(1)[0]; !ev.ForwardHandoff {
			t.Errorf("%s: the last batch's trace event does not flag its hand-off", name)
		}
		if short.from+short.declined != len(batches) || short.tensor != short.declined {
			t.Errorf("%s: %d short updates from the hand-off, %d declined, %d through FitTensor, over %d batches",
				name, short.from, short.declined, short.tensor, len(batches))
		}
		adoptions += short.declined
		t.Logf("%s: %d batches, %d short updates declined by knowledge adoptions", name, len(batches), short.declined)
	}
	if adoptions == 0 {
		t.Error("no knowledge adoption in the four schedules: the declining path went untested")
	}
}

// TestForwardHandoffMisses: each way a parked forward stops matching the
// Process call that follows — rows that differ in one bit, another Process in
// between, a checkpoint restore in between, rows the guard repaired — sends
// that call back to its own forwards, and the learner still matches a twin
// that never infers.
func TestForwardHandoffMisses(t *testing.T) {
	const at, span = 40, 48 // the disturbance, after warm-up; batches run
	src, err := datasets.Build("NSL-KDD", 256, 1002)
	if err != nil {
		t.Fatal(err)
	}
	batches := stream.Collect(src, 0)[:span]
	clone := func(b stream.Batch) stream.Batch {
		x := make([][]float64, len(b.X))
		for i, row := range b.X {
			x[i] = append([]float64(nil), row...)
		}
		return stream.Batch{Seq: b.Seq, X: x, Y: b.Y, Truth: b.Truth}
	}
	cases := []struct {
		name   string
		guard  guard.Policy
		misses int64
		// step runs batches[at] (and maybe the next ones) on both learners
		// and returns the last results and how many batches it consumed.
		step func(t *testing.T, a, b *Learner) (Result, Result, int)
	}{
		{"a row differs in one bit", guard.Reject, 1, func(t *testing.T, a, b *Learner) (Result, Result, int) {
			bt := clone(batches[at])
			bt.X[0][0] = 0
			x := clone(bt).X
			x[0][0] = math.Copysign(0, -1)
			infer(t, a, x)
			return process(t, a, bt), process(t, b, bt), 1
		}},
		{"a Process in between", guard.Reject, 2, func(t *testing.T, a, b *Learner) (Result, Result, int) {
			infer(t, a, batches[at+1].X)
			sameLearners(t, at, a, b, process(t, a, batches[at]), process(t, b, batches[at]))
			return process(t, a, batches[at+1]), process(t, b, batches[at+1]), 2
		}},
		{"a LoadCheckpoint in between", guard.Reject, 1, func(t *testing.T, a, b *Learner) (Result, Result, int) {
			infer(t, a, batches[at].X)
			for _, l := range []*Learner{a, b} {
				var ckpt bytes.Buffer
				if err := l.SaveCheckpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
				if err := l.LoadCheckpoint(&ckpt); err != nil {
					t.Fatal(err)
				}
			}
			return process(t, a, batches[at]), process(t, b, batches[at]), 1
		}},
		{"rows repaired by guard.Impute", guard.Impute, 1, func(t *testing.T, a, b *Learner) (Result, Result, int) {
			infer(t, a, batches[at].X)
			bt := clone(batches[at])
			bt.X[0][0] = math.NaN()
			return process(t, a, bt), process(t, b, bt), 1
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Guard = c.guard
			a, b := handoffLearner(t, cfg, src), handoffLearner(t, cfg, src)
			for k := 0; k < len(batches); {
				if k != at {
					infer(t, a, batches[k].X)
					sameLearners(t, k, a, b, process(t, a, batches[k]), process(t, b, batches[k]))
					k++
					continue
				}
				before := a.obs.handoffMiss.Value()
				ra, rb, n := c.step(t, a, b)
				k += n
				sameLearners(t, k-1, a, b, ra, rb)
				if misses := a.obs.handoffMiss.Value() - before; misses != c.misses {
					t.Fatalf("the disturbed Process calls missed the hand-off %d times, want %d", misses, c.misses)
				}
			}
			if misses := a.obs.handoffMiss.Value(); misses != c.misses {
				t.Errorf("%d misses over the run, want only the disturbance's %d", misses, c.misses)
			}
		})
	}
}

// TestForwardHandoffConcurrentReaders: readers infer other rows while the
// trainer infers and processes its batches on the same learner, so the slot
// is parked and displaced from three goroutines and a Process call may find
// its own Infer's forwards there or a reader's. Whatever it finds, every
// Process answers, and leaves the weights, as a twin that runs alone. Run
// under -race (make race).
func TestForwardHandoffConcurrentReaders(t *testing.T) {
	const span, readers = 40, 2
	src, err := datasets.Build("NSL-KDD", 128, 1002)
	if err != nil {
		t.Fatal(err)
	}
	batches := stream.Collect(src, 0)[:span]
	other, err := datasets.Build("NSL-KDD", 128, 2002)
	if err != nil {
		t.Fatal(err)
	}
	rows := stream.Collect(other, 8)
	a, b := handoffLearner(t, DefaultConfig(), src), handoffLearner(t, DefaultConfig(), src)

	done := make(chan struct{})
	stop := sync.OnceFunc(func() { close(done) })
	defer stop()
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			for i := r; ; i++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if _, err := a.Infer(context.Background(), rows[i%len(rows)].X); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for k, bt := range batches {
		infer(t, a, bt.X)
		sameLearners(t, k, a, b, process(t, a, bt), process(t, b, bt))
	}
	stop()
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d hits, %d misses", a.obs.handoffHit.Value(), a.obs.handoffMiss.Value())
}
