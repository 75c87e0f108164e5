package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
		wa, wb := m.a.Net().AppendFlatParams(nil), m.b.Net().AppendFlatParams(nil)
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
// Infer's forwards on every Process (DESIGN.md, "One read of the batch per
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

// sameBitsOf requires got to equal want, bit for bit.
func sameBitsOf(t *testing.T, k int, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch %d: %d %ss, want %d", k, len(got), what, len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("batch %d: %s %d is %v, want %v", k, what, i, got[i], want[i])
		}
	}
}

// TestAnswerHandoffTwins runs the six Table I streams through two learners:
// one calls Infer and then Process on every batch, the other Process alone.
// Every Process answers alike — labels, strategy, the fused distributions
// behind the labels and the fusion weights its trace event records, bit for
// bit — and leaves the same weights. On every stream some of the first
// learner's Process calls took the answer their Infer fused instead of fusing
// again (Ensemble.Answered), the second learner's never.
func TestAnswerHandoffTwins(t *testing.T) {
	for i, name := range datasets.Benchmark6() {
		src, err := datasets.Build(name, 256, 1000+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		a, b := handoffLearner(t, DefaultConfig(), src), handoffLearner(t, DefaultConfig(), src)
		ensemble := 0
		for k, bt := range stream.Collect(src, 0) {
			infer(t, a, bt.X)
			ra, rb := process(t, a, bt), process(t, b, bt)
			sameLearners(t, k, a, b, ra, rb)
			if ra.Strategy != rb.Strategy {
				t.Fatalf("%s batch %d: strategy %v, the twin %v", name, k, ra.Strategy, rb.Strategy)
			}
			if (ra.proba == nil) != (rb.proba == nil) {
				t.Fatalf("%s batch %d: distributions %v, the twin's %v", name, k, ra.proba, rb.proba)
			}
			if ra.proba != nil {
				if ra.proba.Rows != rb.proba.Rows || ra.proba.Cols != rb.proba.Cols {
					t.Fatalf("%s batch %d: %d×%d distributions, the twin %d×%d", name, k, ra.proba.Rows, ra.proba.Cols, rb.proba.Rows, rb.proba.Cols)
				}
				sameBitsOf(t, k, "probability", ra.proba.Data, rb.proba.Data)
			}
			ea, eb := a.obs.Trace().Last(1)[0], b.obs.Trace().Last(1)[0]
			sameBitsOf(t, k, "fusion weight", ea.EnsembleWeights, eb.EnsembleWeights)
			if ra.Strategy == StrategyEnsemble {
				ensemble++
			}
		}
		taken := a.ens.Answered()
		if taken == 0 || taken > ensemble {
			t.Errorf("%s: %d Process calls took their Infer's answer, over %d ensemble batches", name, taken, ensemble)
		}
		if n := b.ens.Answered(); n != 0 {
			t.Errorf("%s: Process alone took %d answers it never fused", name, n)
		}
		t.Logf("%s: %d of %d ensemble batches answered with the Infer's fusion", name, taken, ensemble)
	}
}

// TestTraceEventOwnsItsWeights: a batch's trace event keeps its own copy of
// the fusion weights. One event comes from a Process that took its Infer's
// answer, whose weights live in the pooled workspace, one from a Process that
// fused itself, into the ensemble's scratch; both still hold their batch's
// weights after sixteen more Infer/Process pairs have reused that storage.
func TestTraceEventOwnsItsWeights(t *testing.T) {
	src, err := datasets.Build("NSL-KDD", 256, 1002)
	if err != nil {
		t.Fatal(err)
	}
	batches := stream.Collect(src, 0)
	a := handoffLearner(t, DefaultConfig(), src)
	type kept struct {
		k    int
		ev   obs.TraceEvent
		want []float64
	}
	var answered, fused *kept
	last := len(batches)
	for k := 0; k < last; k++ {
		before := a.ens.Answered()
		if k%2 == 0 { // every other batch without an Infer: a Process that fuses
			infer(t, a, batches[k].X)
		}
		res := process(t, a, batches[k])
		ev := a.obs.Trace().Last(1)[0]
		switch {
		case answered == nil && a.ens.Answered() > before:
			answered = &kept{k, ev, slices.Clone(ev.EnsembleWeights)}
		case fused == nil && a.ens.Answered() == before && res.Strategy == StrategyEnsemble:
			fused = &kept{k, ev, slices.Clone(ev.EnsembleWeights)}
		default:
			continue
		}
		if answered != nil && fused != nil {
			last = min(k+17, len(batches))
		}
	}
	if answered == nil || fused == nil || last-max(answered.k, fused.k) < 17 {
		t.Fatalf("no batch took its Infer's answer (%v) or fused itself (%v) early enough", answered != nil, fused != nil)
	}
	for _, c := range []*kept{answered, fused} {
		if len(c.want) == 0 {
			t.Fatalf("batch %d's trace event records no weights", c.k)
		}
		sameBitsOf(t, c.k, "kept fusion weight", c.ev.EnsembleWeights, c.want)
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
// its own Infer's forwards there or a reader's; a third reader's rows hold a
// NaN and two infinities, and every one of its reads is refused. Whatever a
// Process finds, it answers, and leaves the weights, as a twin that runs
// alone. Run under -race (make race).
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
	bad := faulty(rows[0]).X
	errs := make(chan error, readers+1)
	for r := 0; r <= readers; r++ {
		go func(r int) {
			for i := r; ; i++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if r == readers {
					if _, err := a.Infer(context.Background(), bad); !errors.Is(err, guard.ErrRejected) {
						errs <- fmt.Errorf("Infer of non-finite rows = %v, want a rejection", err)
						return
					}
				} else if _, err := a.Infer(context.Background(), rows[i%len(rows)].X); err != nil {
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
	for r := 0; r <= readers; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d hits, %d misses", a.obs.handoffHit.Value(), a.obs.handoffMiss.Value())
}

// sameObservations requires two detector verdicts to be equal, bit for bit:
// the projected batch mean ȳ, the distances, the severity and the pattern.
func sameObservations(t *testing.T, k int, a, b Result) {
	t.Helper()
	oa, ob := a.Observation, b.Observation
	if a.Pattern != b.Pattern || a.SubPattern != b.SubPattern || a.Strategy != b.Strategy ||
		oa.Batch != ob.Batch || oa.Pattern != ob.Pattern || oa.NearestHistoryIndex != ob.NearestHistoryIndex ||
		len(oa.YBar) != len(ob.YBar) {
		t.Fatalf("batch %d: %+v (%v, %v, %v), the twin %+v (%v, %v, %v)", k,
			oa, a.Pattern, a.SubPattern, a.Strategy, ob, b.Pattern, b.SubPattern, b.Strategy)
	}
	bits := append([]float64{oa.Distance, oa.Severity, oa.HistoryMean, oa.NearestHistory}, oa.YBar...)
	twin := append([]float64{ob.Distance, ob.Severity, ob.HistoryMean, ob.NearestHistory}, ob.YBar...)
	for i := range bits {
		if math.Float64bits(bits[i]) != math.Float64bits(twin[i]) {
			t.Fatalf("batch %d: observation value %d is %v, the twin's %v", k, i, bits[i], twin[i])
		}
	}
}

// sameGuards requires both learners' guards to hold the same running feature
// means, bit for bit, and both health records to agree.
func sameGuards(t *testing.T, k int, a, b *Learner) {
	t.Helper()
	ma, mb := a.guard.FeatureMeans(), b.guard.FeatureMeans()
	for j := range ma {
		if math.Float64bits(ma[j]) != math.Float64bits(mb[j]) {
			t.Fatalf("batch %d: feature %d's running mean is %v, the twin's %v", k, j, ma[j], mb[j])
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("batch %d: health %+v, the twin's %+v", k, sa, sb)
	}
}

// faulty returns a copy of b with a NaN, a +Inf and a −Inf among its
// features: three values in three rows.
func faulty(b stream.Batch) stream.Batch {
	x := make([][]float64, len(b.X))
	for i, row := range b.X {
		x[i] = append([]float64(nil), row...)
	}
	last := len(x) - 1
	x[0][0], x[3][1], x[last][len(x[last])-1] = math.NaN(), math.Inf(1), math.Inf(-1)
	return stream.Batch{Seq: b.Seq, X: x, Y: b.Y, Truth: b.Truth}
}

// TestGuardedHandoffTwins runs the four learn_drift schedules under each guard
// policy through two learners: one calls Infer and then Process on every
// batch, the other Process alone. A Process that takes the Infer's workspace
// takes its slab as checked — the guard scans nothing, Impute only folds the
// rows into its running means — and the detector averages that slab. After
// every batch both twins answered the same labels at the same accuracy from
// the same observation (ȳ included), hold the same weights and the same
// running feature means, and count the same health events, bit for bit. Under
// every policy, every ninth batch carries a NaN and two infinities:
// the Infer refuses it and parks nothing, and the Process that follows
// rejects it under Reject and repairs it under Clamp and Impute, in both
// twins alike.
func TestGuardedHandoffTwins(t *testing.T) {
	for _, policy := range []guard.Policy{guard.Reject, guard.Clamp, guard.Impute} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Guard = policy
			for i, name := range []string{"Hyperplane", "Covertype", "NSL-KDD", "Electricity"} {
				src, err := datasets.Build(name, 256, 1000+int64(i))
				if err != nil {
					t.Fatal(err)
				}
				a, b := handoffLearner(t, cfg, src), handoffLearner(t, cfg, src)
				var clean, dirty int
				for k, bt := range stream.Collect(src, 0) {
					if k%9 != 4 {
						clean++
						infer(t, a, bt.X)
						ra, rb := process(t, a, bt), process(t, b, bt)
						sameLearners(t, k, a, b, ra, rb)
						sameObservations(t, k, ra, rb)
						sameGuards(t, k, a, b)
						continue
					}
					dirty++
					bt = faulty(bt)
					if _, err := a.Infer(context.Background(), bt.X); !errors.Is(err, guard.ErrRejected) {
						t.Fatalf("%s batch %d: Infer of non-finite rows = %v, want a rejection", name, k, err)
					}
					if h := a.parked.Load(); h != nil {
						t.Fatalf("%s batch %d: a rejected Infer parked its workspace", name, k)
					}
					ra, errA := a.Process(context.Background(), bt)
					rb, errB := b.Process(context.Background(), bt)
					if policy == guard.Reject {
						if !errors.Is(errA, guard.ErrRejected) || !errors.Is(errB, guard.ErrRejected) {
							t.Fatalf("%s batch %d: Process under Reject = %v and %v, want rejections", name, k, errA, errB)
						}
					} else {
						if errA != nil || errB != nil {
							t.Fatalf("%s batch %d: Process under %v = %v and %v", name, k, policy, errA, errB)
						}
						sameLearners(t, k, a, b, ra, rb)
						sameObservations(t, k, ra, rb)
					}
					sameGuards(t, k, a, b)
				}
				want := Stats{}
				switch policy {
				case guard.Reject:
					want.RejectedBatches = dirty
				case guard.Clamp, guard.Impute:
					want.SanitizedValues, want.SanitizedBatches = 3*dirty, dirty
				}
				if st := a.Stats(); st.SanitizedValues != want.SanitizedValues ||
					st.SanitizedBatches != want.SanitizedBatches || st.RejectedBatches != want.RejectedBatches {
					t.Errorf("%s: health %+v, want %d values in %d sanitized batches and %d rejected",
						name, st, want.SanitizedValues, want.SanitizedBatches, want.RejectedBatches)
				}
				if hits := a.obs.handoffHit.Value(); hits != int64(clean) {
					t.Errorf("%s: %d hand-off hits over %d clean batches", name, hits, clean)
				}
				means := a.guard.FeatureMeans()
				if moved := slices.ContainsFunc(means, func(m float64) bool { return m != 0 }); moved != (policy == guard.Impute) {
					t.Errorf("%s: running feature means %v under %v", name, means, policy)
				}
			}
		})
	}
}

// TestRejectedInferParksNothing: an Infer of a batch holding a NaN and two
// infinities is refused with the guard's error and leaves the hand-off slot
// as it found it — holding the workspace parked before, or empty. The Process
// of that batch under Clamp then misses the hand-off, repairs the batch and
// counts it as the guard always has: three values in one sanitized batch, none
// rejected, three in the batch's trace event. It answers, and leaves the
// weights, as a twin that never infers — and, the detector's verdict
// included, as a third learner handed the batch already clamped: the
// repaired rows, not the arriving ones, are what the detector averages and
// the members forward.
func TestRejectedInferParksNothing(t *testing.T) {
	const at = 40
	src, err := datasets.Build("NSL-KDD", 256, 1002)
	if err != nil {
		t.Fatal(err)
	}
	batches := stream.Collect(src, 0)[:at+2]
	cfg := DefaultConfig()
	cfg.Guard = guard.Clamp
	a, b, c := handoffLearner(t, cfg, src), handoffLearner(t, cfg, src), handoffLearner(t, cfg, src)
	for k := 0; k < at; k++ {
		infer(t, a, batches[k].X)
		sameLearners(t, k, a, b, process(t, a, batches[k]), process(t, b, batches[k]))
		process(t, c, batches[k])
	}
	bad := faulty(batches[at])
	clamped := faulty(batches[at])
	last := len(clamped.X) - 1
	clamped.X[0][0], clamped.X[3][1], clamped.X[last][len(clamped.X[last])-1] = 0, guard.DefaultClampLimit, -guard.DefaultClampLimit
	rejected := func() {
		t.Helper()
		_, err := a.Infer(context.Background(), bad.X)
		if !errors.Is(err, guard.ErrRejected) || err.Error() != "core: infer: non-finite feature: guard: batch rejected" {
			t.Fatalf("Infer of non-finite rows = %v", err)
		}
	}
	rejected()
	if a.parked.Load() != nil {
		t.Fatal("a rejected Infer parked its workspace in the empty slot")
	}
	infer(t, a, batches[at].X)
	parked := a.parked.Load()
	rejected()
	if a.parked.Load() != parked {
		t.Fatal("a rejected Infer displaced the parked workspace")
	}

	misses := a.obs.handoffMiss.Value()
	ra, rb := process(t, a, bad), process(t, b, bad)
	sameLearners(t, at, a, b, ra, rb)
	sameObservations(t, at, ra, rb)
	sameGuards(t, at, a, b)
	rc := process(t, c, clamped)
	sameLearners(t, at, a, c, ra, rc)
	sameObservations(t, at, ra, rc)
	if got := a.obs.handoffMiss.Value() - misses; got != 1 {
		t.Errorf("the repaired batch missed the hand-off %d times, want 1", got)
	}
	if st := a.Stats(); st.SanitizedValues != 3 || st.SanitizedBatches != 1 || st.RejectedBatches != 0 {
		t.Errorf("health after one repaired batch: %+v, want 3 values in 1 sanitized batch", st)
	}
	if ev := a.obs.Trace().Last(1)[0]; ev.GuardSanitized != 3 || ev.GuardRejected {
		t.Errorf("the repaired batch's trace event counts %d sanitized values (rejected %v), want 3", ev.GuardSanitized, ev.GuardRejected)
	}
	infer(t, a, batches[at+1].X)
	sameLearners(t, at+1, a, b, process(t, a, batches[at+1]), process(t, b, batches[at+1]))
	sameGuards(t, at+1, a, b)
}
