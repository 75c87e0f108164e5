package strategy

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
	"freewayml/internal/window"
)

// plainModel declines the test-then-train fast path: an ensemble of these can
// only ever train through a forward of its own.
type plainModel struct{ model.Model }

func (plainModel) FitFrom(*nn.Forward, []int) (float64, bool, error) {
	return 0, false, nil
}

// countedModel counts which way each update of a network model went.
type countedModel struct {
	model.Model
	fits, reused int
}

func (c *countedModel) Fit(x [][]float64, y []int) (float64, error) {
	c.fits++
	return c.Model.Fit(x, y)
}

func (c *countedModel) FitTensor(x *linalg.Tensor, y []int) (float64, error) {
	c.fits++
	return c.Model.FitTensor(x, y)
}

func (c *countedModel) FitFrom(fw *nn.Forward, y []int) (float64, bool, error) {
	loss, ok, err := c.Model.FitFrom(fw, y)
	if ok {
		c.reused++
	}
	return loss, ok, err
}

const reuseDim, reuseClasses = 6, 3

// reuseEnsemble builds an ensemble of mlp members, one per entry
// of every (its update period), each passed through wrap.
func reuseEnsemble(t *testing.T, every []int, wrap func(model.Model) model.Model) *Ensemble {
	t.Helper()
	factory, err := model.FactoryFor("mlp", model.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	build := func() model.Model {
		m, err := factory(reuseDim, reuseClasses)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var grans []*Granularity
	for _, ev := range every {
		grans = append(grans, NewGranularity(wrap(build()), ev, NewWatchdog("g")))
	}
	asw, err := window.New(window.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := 0
	return NewEnsemble(EnsembleConfig{Sigma: 1, LongEpochs: 1, LongChunk: 64},
		grans, build(), nil, asw, EnsembleDeps{
			OnRecovery:    func(RecoveryEvent) {},
			BatchNum:      func() int { batch++; return batch },
			ReplaceRadius: func() float64 { return 0 },
		})
}

func reuseBatch(rng *rand.Rand) (stream.Batch, shift.Observation) {
	b := stream.Batch{X: make([][]float64, 24), Y: make([]int, 24)}
	for i := range b.X {
		b.Y[i] = rng.Intn(reuseClasses)
		b.X[i] = make([]float64, reuseDim)
		for j := range b.X[i] {
			b.X[i][j] = rng.NormFloat64()
		}
		b.X[i][b.Y[i]] += 2
	}
	return b, shift.Observation{Pattern: shift.PatternA, YBar: linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}}
}

func sameWeights(t *testing.T, when string, a, b model.Model) {
	t.Helper()
	wa, wb := a.Net().AppendFlatParams(nil), b.Net().AppendFlatParams(nil)
	for i := range wa {
		if math.Float64bits(wa[i]) != math.Float64bits(wb[i]) {
			t.Fatalf("%s: weight %d: %v (reuse) vs %v (plain Fit)", when, i, wa[i], wb[i])
		}
	}
}

// begin stages b in a pooled workspace and begins it on e, as the learner's
// Process does. The returned func ends the batch and releases the workspace.
func begin(e *Ensemble, b stream.Batch) (end func()) {
	ws := nn.GetWorkspace()
	ws.Stage(b.X, e.long.InDim())
	e.BeginBatch(ws)
	return func() {
		e.EndBatch()
		ws.Release()
	}
}

// step runs one batch through e the way the learner does: the batch begun,
// Infer, the disturbance, Train, and the publication that the next batch's
// forwards read.
func step(t *testing.T, e *Ensemble, b stream.Batch, obs shift.Observation, disturb func(*testing.T, *Ensemble)) {
	t.Helper()
	defer begin(e, b)()
	if _, err := e.Infer(obs.YBar, nil, nil); err != nil {
		t.Fatal(err)
	}
	if disturb != nil {
		disturb(t, e)
	}
	if err := e.Train(context.Background(), b.Y, obs, nil); err != nil {
		t.Fatal(err)
	}
	e.PublishSnapshot()
}

// TestEnsembleForwardReuse drives twin ensembles — one whose members train
// from the published members' forwards, one whose members always run their
// own — through identical Infer → (disturbance) → Train sequences. The weights
// must agree bit for bit after every batch, and every undisturbed batch must
// have trained from the forward Infer ran. A parameter write between the two
// sends exactly its batch back to FitTensor; a live forward of other rows
// (what CEC's arbitration runs) does not.
func TestEnsembleForwardReuse(t *testing.T) {
	other, _ := reuseBatch(rand.New(rand.NewSource(99)))

	disturbances := map[string]struct {
		disturb  func(t *testing.T, e *Ensemble)
		declines bool
	}{
		"none": {},
		"another batch forwarded in between": {func(t *testing.T, e *Ensemble) {
			e.ShortModel().Predict(other.X)
		}, false},
		"Restore": {func(t *testing.T, e *Ensemble) {
			snap, err := e.ShortModel().Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ShortModel().Restore(snap); err != nil {
				t.Fatal(err)
			}
		}, true},
		"AdoptShort": {func(t *testing.T, e *Ensemble) {
			snap, err := e.long.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AdoptShort(snap, linalg.Vector{0, 0}); err != nil {
				t.Fatal(err)
			}
		}, true},
		"external parameter write": {func(t *testing.T, e *Ensemble) {
			net := e.ShortModel().Net() // what the Alink baseline's shrinkage does
			for _, p := range net.Params() {
				p.W[0] *= 0.5
			}
			net.InvalidateForward()
		}, true},
	}
	for name, d := range disturbances {
		t.Run(name, func(t *testing.T) {
			var counted *countedModel
			reuse := reuseEnsemble(t, []int{1}, func(m model.Model) model.Model {
				counted = &countedModel{Model: m}
				return counted
			})
			plain := reuseEnsemble(t, []int{1}, func(m model.Model) model.Model { return plainModel{m} })
			rng := rand.New(rand.NewSource(31))
			const batches, disturbed = 10, 4 // long enough to close the window once
			for k := 0; k < batches; k++ {
				b, obs := reuseBatch(rng)
				for _, e := range []*Ensemble{reuse, plain} {
					var disturb func(*testing.T, *Ensemble)
					if k == disturbed {
						disturb = d.disturb
					}
					step(t, e, b, obs, disturb)
				}
				sameWeights(t, "short model", reuse.ShortModel(), plain.ShortModel())
				sameWeights(t, "long model", reuse.long, plain.long)
			}
			wantFits := 0
			if d.declines {
				wantFits = 1
			}
			if counted.fits != wantFits || counted.reused != batches-wantFits {
				t.Fatalf("%d updates reused the forward and %d ran their own, want %d and %d",
					counted.reused, counted.fits, batches-wantFits, wantFits)
			}
		})
	}
}

// TestEnsembleForwardReuseFallbacks: a member that buffers batches
// (Every == 2) trains rows it did not predict together, so it may not reuse a
// forward, and it must still match the twin that never reuses one.
func TestEnsembleForwardReuseFallbacks(t *testing.T) {
	run := func(t *testing.T, reuse, plain *Ensemble) {
		rng := rand.New(rand.NewSource(32))
		for k := 0; k < 6; k++ {
			b, obs := reuseBatch(rng)
			for _, e := range []*Ensemble{reuse, plain} {
				step(t, e, b, obs, nil)
			}
			for i := range reuse.grans {
				sameWeights(t, "member", reuse.grans[i].Model, plain.grans[i].Model)
			}
		}
	}

	t.Run("Every == 2", func(t *testing.T) {
		var counted []*countedModel
		reuse := reuseEnsemble(t, []int{1, 2}, func(m model.Model) model.Model {
			c := &countedModel{Model: m}
			counted = append(counted, c)
			return c
		})
		plain := reuseEnsemble(t, []int{1, 2}, func(m model.Model) model.Model { return plainModel{m} })
		run(t, reuse, plain)
		if counted[0].reused != 6 || counted[0].fits != 0 {
			t.Errorf("per-batch member: %d reused, %d ran their own, want 6 and 0", counted[0].reused, counted[0].fits)
		}
		if counted[1].reused != 0 || counted[1].fits != 3 {
			t.Errorf("buffered member: %d reused, %d ran their own, want 0 and 3", counted[1].reused, counted[1].fits)
		}
	})
}
