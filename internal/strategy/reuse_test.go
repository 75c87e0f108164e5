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
// only ever train through Fit.
type plainModel struct{ model.Model }

func (plainModel) FitForwarded(nn.ForwardToken, []int) (float64, bool, error) {
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

func (c *countedModel) FitForwarded(tok nn.ForwardToken, y []int) (float64, bool, error) {
	loss, ok, err := c.Model.FitForwarded(tok, y)
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

// TestEnsembleForwardReuse drives twin ensembles — one whose members offer the
// test-then-train fast path, one whose members only have Fit — through
// identical Infer → (disturbance) → Train sequences. The weights must agree
// bit for bit after every batch, the undisturbed batches must all have
// trained on the reused forward, and each disturbance must have sent exactly
// its batch back to plain Fit.
func TestEnsembleForwardReuse(t *testing.T) {
	ctx := context.Background()
	other, _ := reuseBatch(rand.New(rand.NewSource(99)))

	disturbances := map[string]func(t *testing.T, e *Ensemble){
		"none": nil,
		"another batch forwarded in between": func(t *testing.T, e *Ensemble) {
			e.ShortModel().Predict(other.X) // what CEC's arbitration does
		},
		"Restore": func(t *testing.T, e *Ensemble) {
			snap, err := e.ShortModel().Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ShortModel().Restore(snap); err != nil {
				t.Fatal(err)
			}
		},
		"AdoptShort": func(t *testing.T, e *Ensemble) {
			snap, err := e.long.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AdoptShort(snap, linalg.Vector{0, 0}); err != nil {
				t.Fatal(err)
			}
		},
		"external parameter write": func(t *testing.T, e *Ensemble) {
			net := e.ShortModel().Net() // what the Alink baseline's shrinkage does
			for _, p := range net.Params() {
				p.W[0] *= 0.5
			}
			net.InvalidateForward()
		},
	}
	for name, disturb := range disturbances {
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
					if _, _, err := e.Infer(ctx, b, obs, nil); err != nil {
						t.Fatal(err)
					}
					if k == disturbed && disturb != nil {
						disturb(t, e)
					}
					if err := e.Train(ctx, b, obs, nil); err != nil {
						t.Fatal(err)
					}
				}
				sameWeights(t, "short model", reuse.ShortModel(), plain.ShortModel())
				sameWeights(t, "long model", reuse.long, plain.long)
			}
			wantFits := 0
			if disturb != nil {
				wantFits = 1
			}
			if counted.fits != wantFits || counted.reused != batches-wantFits {
				t.Fatalf("%d updates reused the forward and %d fell back to Fit, want %d and %d",
					counted.reused, counted.fits, batches-wantFits, wantFits)
			}
		})
	}
}

// TestEnsembleForwardReuseFallbacks: a member that buffers batches
// (Every == 2) trains rows it did not predict together, so it may not reuse a
// forward, and it must still match the plain-Fit twin.
func TestEnsembleForwardReuseFallbacks(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T, reuse, plain *Ensemble) {
		rng := rand.New(rand.NewSource(32))
		for k := 0; k < 6; k++ {
			b, obs := reuseBatch(rng)
			for _, e := range []*Ensemble{reuse, plain} {
				if _, _, err := e.Infer(ctx, b, obs, nil); err != nil {
					t.Fatal(err)
				}
				if err := e.Train(ctx, b, obs, nil); err != nil {
					t.Fatal(err)
				}
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
			t.Errorf("per-batch member: %d reused, %d Fit, want 6 and 0", counted[0].reused, counted[0].fits)
		}
		if counted[1].reused != 0 || counted[1].fits != 3 {
			t.Errorf("buffered member: %d reused, %d Fit, want 0 and 3", counted[1].reused, counted[1].fits)
		}
	})
}
