package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/model"
	"freewayml/internal/nn"
)

// familyNet builds the network of one model-zoo family (same seed every
// call, so two calls give bit-identical twins).
func familyNet(t *testing.T, family string, dim, classes int) *nn.Network {
	t.Helper()
	factory, err := model.FactoryFor(family, model.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	m, err := factory(dim, classes)
	if err != nil {
		t.Fatal(err)
	}
	return m.Net()
}

func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d values", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: value %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestTrainForwardedMatchesTrainBatch is the forward-reuse contract: predict
// a batch, then TrainForwarded on that pass's token ≡ predict, then
// TrainBatch — the same loss, weights, gradient accumulators and momentum,
// bit for bit, step after step (momentum and weight decay on), for every
// network family.
func TestTrainForwardedMatchesTrainBatch(t *testing.T) {
	const dim, classes, rows = 12, 5, 37
	h := model.DefaultHyper()
	for _, family := range []string{"lr", "mlp", "cnn3", "cnn5"} {
		t.Run(family, func(t *testing.T) {
			plain, reuse := familyNet(t, family, dim, classes), familyNet(t, family, dim, classes)
			optPlain := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
			optReuse := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
			rng := rand.New(rand.NewSource(11))
			for step := 0; step < 4; step++ {
				x, y := elisionBatch(rng, rows, dim, classes)

				pp := plain.PredictProba(x)
				lossPlain, err := plain.TrainBatch(x, y, optPlain)
				if err != nil {
					t.Fatal(err)
				}

				pr := reuse.PredictProba(x)
				lossReuse, ok, err := reuse.TrainForwarded(reuse.LastForward(), y, optReuse)
				if err != nil || !ok {
					t.Fatalf("step %d: TrainForwarded ok=%v err=%v on a fresh token", step, ok, err)
				}

				for i := range pp {
					sameBits(t, "probabilities", pp[i], pr[i])
				}
				if math.Float64bits(lossPlain) != math.Float64bits(lossReuse) {
					t.Fatalf("step %d: loss %v vs %v", step, lossPlain, lossReuse)
				}
				sameParamBits(t, "after update", plain, reuse)
				for k, p := range plain.Params() {
					sameBits(t, "momentum", nn.Velocity(optPlain, p), nn.Velocity(optReuse, reuse.Params()[k]))
				}
				if reuse.LastForward() != (nn.ForwardToken{}) {
					t.Fatal("the optimizer step left a forward token standing")
				}
			}
		})
	}
}

// TestForwardTokenInvalidation: everything that makes the layer caches stop
// describing "this batch under these weights" outdates the token, and an
// outdated token makes TrainForwarded a no-op.
func TestForwardTokenInvalidation(t *testing.T) {
	const dim, classes, rows = 6, 3, 9
	rng := rand.New(rand.NewSource(5))
	x, y := elisionBatch(rng, rows, dim, classes)
	other, _ := elisionBatch(rng, rows, dim, classes)
	h := model.DefaultHyper()

	cases := map[string]func(n *nn.Network, opt *nn.SGD){
		"later forward of another batch": func(n *nn.Network, _ *nn.SGD) { n.Predict(other) },
		"later forward of the same rows": func(n *nn.Network, _ *nn.SGD) { n.PredictProba(x) },
		"backward pass":                  func(n *nn.Network, _ *nn.SGD) { n.AccumulateGradients(x, y); n.ZeroGrad() },
		"optimizer step":                 func(n *nn.Network, opt *nn.SGD) { n.Step(opt) },
		"Restore": func(n *nn.Network, _ *nn.SGD) {
			snap, err := n.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Restore(snap); err != nil {
				t.Fatal(err)
			}
		},
		"SetFlatParams":            func(n *nn.Network, _ *nn.SGD) { n.SetFlatParams(n.AppendFlatParams(nil)) },
		"declared parameter write": func(n *nn.Network, _ *nn.SGD) { n.Params()[0].W[0] *= 0.5; n.InvalidateForward() },
	}
	for name, disturb := range cases {
		t.Run(name, func(t *testing.T) {
			n := familyNet(t, "mlp", dim, classes)
			opt := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
			n.PredictProba(x)
			tok := n.LastForward()
			if tok == (nn.ForwardToken{}) {
				t.Fatal("no token after a forward pass")
			}
			disturb(n, opt)
			before := n.AppendFlatParams(nil)
			if _, ok, err := n.TrainForwarded(tok, y, opt); ok || err != nil {
				t.Fatalf("TrainForwarded ran on an outdated token (ok=%v err=%v)", ok, err)
			}
			sameBits(t, "weights after a refused TrainForwarded", before, n.AppendFlatParams(nil))
		})
	}

	// The zero token never trains and a token trains once.
	n := familyNet(t, "mlp", dim, classes)
	opt := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
	if _, ok, _ := n.TrainForwarded(nn.ForwardToken{}, y, opt); ok {
		t.Fatal("zero token trained")
	}
	n.PredictProba(x)
	tok := n.LastForward()
	if _, ok, err := n.TrainForwarded(tok, y, opt); !ok || err != nil {
		t.Fatalf("fresh token refused: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := n.TrainForwarded(tok, y, opt); ok {
		t.Fatal("a token trained twice")
	}
	// A label error surfaces as TrainBatch's would, with nothing stepped.
	n.PredictProba(x)
	before := n.AppendFlatParams(nil)
	bad := append([]int(nil), y...)
	bad[0] = classes
	if _, ok, err := n.TrainForwarded(n.LastForward(), bad, opt); !ok || err == nil {
		t.Fatalf("bad label: ok=%v err=%v, want ok with an error", ok, err)
	}
	sameBits(t, "weights after a failed update", before, n.AppendFlatParams(nil))
}
